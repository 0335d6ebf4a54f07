"""The paper's analytical framework: requirements, evaluation, remedies."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "CpfComparison", "CpfEnhancementStudy", "QosCacheStudy",
    "EvaluationResult", "EvaluationSummary", "InfrastructureEvaluation",
    "GapAnalysis", "GapReport",
    "SixGUpgradeStudy", "UpgradeArm",
    "LocalPeeringExperiment", "PeeringOutcome",
    "render_comparison_table", "render_grid_heatmap",
    "FIVE_G_CAPABILITY", "SIX_G_CAPABILITY", "GenerationCapability",
    "RequirementsAnalysis", "RequirementVerdict",
    "KnobResult", "SensitivityAnalysis",
    "DynamicUpfSelector", "UpfDeployment", "UpfPlacementStudy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".cpf_strategy": ("CpfComparison", "CpfEnhancementStudy",
                      "QosCacheStudy"),
    ".evaluation": ("EvaluationResult", "EvaluationSummary",
                    "InfrastructureEvaluation"),
    ".future": ("SixGUpgradeStudy", "UpgradeArm"),
    ".gap": ("GapAnalysis", "GapReport"),
    ".peering": ("LocalPeeringExperiment", "PeeringOutcome"),
    ".report": ("render_comparison_table", "render_grid_heatmap"),
    ".requirements": ("FIVE_G_CAPABILITY", "SIX_G_CAPABILITY",
                      "GenerationCapability", "RequirementsAnalysis",
                      "RequirementVerdict"),
    ".sensitivity": ("KnobResult", "SensitivityAnalysis"),
    ".upf_strategy": ("DynamicUpfSelector", "UpfDeployment",
                      "UpfPlacementStudy"),
})

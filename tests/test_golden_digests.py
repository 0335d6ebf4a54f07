"""Golden digests: the bit-identity tripwire for perf work.

Each digest is the SHA-256 of ``EvaluationSummary.canonical_json()``
for a registered scenario at the paper's seed.  Any change anywhere in
the measurement pipeline — RNG consumption order, float operation
order, serving-cell tie-breaks, serialization — flips these bytes.

If one of these assertions fails, a change broke bit-reproducibility:
every content-addressed cache entry (``fleet.cache.run_key``) and every
cross-fleet comparison baseline silently invalidates.  Do NOT update
the constants to make the suite green unless the change *intends* to
alter simulation results, and say so loudly in the changelog.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core import SensitivityAnalysis, SixGUpgradeStudy
from repro.core.evaluation import InfrastructureEvaluation

GOLDEN_SHA256 = {
    "klagenfurt":
        "fadf1e06761655ceaa4d88bbdcf49344f7687cb3041cb1a51b514305b7c92add",
    "skopje":
        "226d7020331b6453943c5603a875045d285d9e451a753bc78665e8f7a68a52df",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN_SHA256))
def test_golden_summary_digest(scenario):
    summary = InfrastructureEvaluation(
        seed=42, scenario=scenario).run().summary()
    digest = hashlib.sha256(
        summary.canonical_json().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[scenario], (
        f"{scenario} @ seed 42 produced digest {digest}; the committed "
        f"golden value is {GOLDEN_SHA256[scenario]}. A code change "
        "altered simulation bytes — see this module's docstring before "
        "touching the constant.")


def test_golden_digest_is_run_to_run_stable():
    a = InfrastructureEvaluation(seed=42).run().summary().canonical_json()
    b = InfrastructureEvaluation(seed=42).run().summary().canonical_json()
    assert a == b


#: SHA-256 of the what-if studies' results at density 2: the baseline
#: plus every knob at 0.8 and 1.2, and the four upgrade arms' gap
#: reports.  Recorded from the from-scratch per-run evaluation the
#: studies used before they ran as run lists.
GOLDEN_STUDY_SHA256 = {
    ("sensitivity", 42):
        "f856d3ef73bca056297f0020b7798c60c640689b9bb370ead52da3b6051cb2ed",
    ("sensitivity", 7):
        "e22c65f9c8551ddc0bde5040ae06ece81ac7ed6dc37bb2af478d02944c9131a2",
    ("upgrade", 42):
        "9b5682b2cca8f89d519fbe18d0ee74f46c4403e3107fac1d7230b33473e4e504",
    ("upgrade", 7):
        "6b6ecbcfd31b1afdd1a0e4e9e21aee3c529e5c048666c9eaf98ed1b0ff68653e",
}


def _study_payload(study, seed):
    if study == "sensitivity":
        analysis = SensitivityAnalysis(seed=seed, mean_positions_per_cell=2.0)
        return {"baseline": asdict(analysis.baseline()),
                "sweep": {knob: [asdict(result) for result in results]
                          for knob, results in
                          analysis.sweep((0.8, 1.2)).items()}}
    reports = SixGUpgradeStudy(seed=seed, mean_positions_per_cell=2.0).run()
    return {name: asdict(report) for name, report in reports.items()}


@pytest.mark.parametrize("study, seed", sorted(GOLDEN_STUDY_SHA256))
def test_golden_study_digest(study, seed):
    text = json.dumps(_study_payload(study, seed), sort_keys=True,
                      separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_STUDY_SHA256[study, seed], (
        f"{study} @ seed {seed} produced digest {digest}; see this "
        "module's docstring before touching the constant.")


#: SHA-256 of the CLI's stdout, byte for byte.  ``tests/test_cli.py``
#: checks what these commands print; these pin every byte of it.
GOLDEN_STDOUT_SHA256 = {
    ("evaluate", "--seed", "42"):
        "540262cad3fb0de580bcf327e7e204fcc4a5afa77f5d0b62b107fe0378ec70e3",
    ("evaluate", "--seed", "42", "--scenario", "skopje"):
        "477294bcb6fbb0437768e5ad139b809b68f67d151ef2682785ed64830ee9e6fc",
    ("peering",):
        "67f89e72df807ba4d83152bc247b4b9a72c81921e56e2d89ebaf02736e7b9a5a",
    ("upf",):
        "04f8d438f829e3d94ca9be713c699b12c8c6cf0b6beb5b73e4e94392633e8097",
    ("cpf",):
        "9d53df359111b3c1f486a58f009d1ad9aa8d4f77d94fbe3d0f64c98134d249c9",
    ("requirements",):
        "13b7c7672069a5590709973c4b7745efbefb8220239d00560d97095a49e69ef3",
    ("scenarios",):
        "474041170d810a25662f33cdecd61524abf6271a1c7bf16bdec453a0abe2e94c",
}


@pytest.mark.parametrize(
    "argv", sorted(GOLDEN_STDOUT_SHA256),
    ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_golden_stdout_digest(argv, capsys):
    from repro.__main__ import main

    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_STDOUT_SHA256[argv], (
        f"`python -m repro {' '.join(argv)}` printed other bytes "
        f"(digest {digest}); see this module's docstring before "
        "touching the constant.")

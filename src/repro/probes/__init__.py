"""Measurement framework: probes, pings, drive-test campaign, statistics."""


from __future__ import annotations

from .._lazy import lazy_exports
from .ping import ping  # eager: shadows its submodule

__all__ = [
    "Probe", "ProbeKind", "ProbeRegistry",
    "CampaignConfig", "DriveTestCampaign",
    "ping",
    "MeasurementDataset", "MeasurementRecord",
    "CellAggregate", "CellStatistics", "MIN_SAMPLES",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".atlas": ("Probe", "ProbeKind", "ProbeRegistry"),
    ".campaign": ("CampaignConfig", "DriveTestCampaign"),
    ".results": ("MeasurementDataset", "MeasurementRecord"),
    ".stats": ("CellAggregate", "CellStatistics", "MIN_SAMPLES"),
})

"""Application workloads: the AR use case, video frame cycles and the
latency requirements of the application domains."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "AR_RTT_BUDGET_S", "ARGameSession", "GameRoundStats", "ar_service_chain",
    "ApplicationProfile", "Service", "ServiceChain",
    "FrameCycleAnalysis", "VideoStreamConfig",
    "FactoryLine", "SmartCityDeployment", "all_profiles", "ar_gaming",
    "autonomous_vehicle", "massive_iot", "remote_surgery",
    "smart_city_traffic", "smart_factory",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ar_game": ("AR_RTT_BUDGET_S", "ARGameSession", "GameRoundStats",
                 "ar_service_chain"),
    ".base": ("ApplicationProfile", "Service", "ServiceChain"),
    ".video": ("FrameCycleAnalysis", "VideoStreamConfig"),
    ".workloads": ("FactoryLine", "SmartCityDeployment", "all_profiles",
                   "ar_gaming", "autonomous_vehicle", "massive_iot",
                   "remote_surgery", "smart_city_traffic", "smart_factory"),
})

"""Application workloads: the AR use case, video, IoT protocols, domains."""


from __future__ import annotations

from .._lazy import lazy_exports

__all__ = [
    "AR_RTT_BUDGET_S", "ARGameSession", "GameRoundStats", "ar_service_chain",
    "ApplicationProfile", "Service", "ServiceChain",
    "FederatedConfig", "FederatedRoundModel",
    "HapticConfig", "HapticLoop",
    "PROTOCOLS", "IotProtocol", "ProtocolStack", "overhead_band_s",
    "FrameCycleAnalysis", "VideoStreamConfig",
    "PlatoonConfig", "PlatoonModel",
    "FactoryLine", "SmartCityDeployment", "all_profiles", "ar_gaming",
    "autonomous_vehicle", "massive_iot", "remote_surgery",
    "smart_city_traffic", "smart_factory",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".ar_game": ("AR_RTT_BUDGET_S", "ARGameSession", "GameRoundStats",
                 "ar_service_chain"),
    ".base": ("ApplicationProfile", "Service", "ServiceChain"),
    ".federated": ("FederatedConfig", "FederatedRoundModel"),
    ".haptics": ("HapticConfig", "HapticLoop"),
    ".iot": ("PROTOCOLS", "IotProtocol", "ProtocolStack", "overhead_band_s"),
    ".v2x": ("PlatoonConfig", "PlatoonModel"),
    ".video": ("FrameCycleAnalysis", "VideoStreamConfig"),
    ".workloads": ("FactoryLine", "SmartCityDeployment", "all_profiles",
                   "ar_gaming", "autonomous_vehicle", "massive_iot",
                   "remote_surgery", "smart_city_traffic", "smart_factory"),
})

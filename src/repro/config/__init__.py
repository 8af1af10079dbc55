"""System configuration: frozen dataclasses and the evaluated presets."""

from repro.config.presets import (
    EVALUATED_CONFIG_NAMES,
    PRESETS,
    make_config,
)
from repro.config.system import (
    CoreConfig,
    DramCacheConfig,
    FaultConfig,
    FlashConfig,
    OsConfig,
    Override,
    PagingMode,
    SchedulingPolicy,
    SimulationScale,
    SystemConfig,
    TlbConfig,
    UltConfig,
    derive,
)

__all__ = [
    "EVALUATED_CONFIG_NAMES",
    "PRESETS",
    "CoreConfig",
    "DramCacheConfig",
    "FaultConfig",
    "FlashConfig",
    "OsConfig",
    "Override",
    "PagingMode",
    "SchedulingPolicy",
    "SimulationScale",
    "SystemConfig",
    "TlbConfig",
    "UltConfig",
    "derive",
    "make_config",
]

"""edgesim: energy-model simulator of mixed-signal MAC accelerators and the
edge-robotics workloads (Q-learning navigation, swarm tasks) that exercise
them."""

from edgesim.macmodel import (
    EnergyParams,
    MacResult,
    Operand,
    calibrate_energy,
    default_params,
    digital_mac,
    hdms_mac,
    hdms_plan,
    mean_energy,
    quantize,
    dequantize,
    tdms_mac,
)
from edgesim.stochsyn import Lfsr, drop_mask, masked_weights

__version__ = "0.1.0"

__all__ = [
    "EnergyParams",
    "MacResult",
    "Operand",
    "Lfsr",
    "calibrate_energy",
    "default_params",
    "dequantize",
    "digital_mac",
    "drop_mask",
    "hdms_mac",
    "hdms_plan",
    "masked_weights",
    "mean_energy",
    "quantize",
    "tdms_mac",
    "__version__",
]

"""edgesim: energy-model simulator of mixed-signal MAC accelerators and the
edge-robotics workloads (Q-learning navigation, swarm tasks) that exercise
them."""

from edgesim.macmodel import (
    EnergyParams,
    MacResult,
    Operand,
    calibrate_energy,
    default_params,
    mac,
    mean_energy,
    quantize,
    dequantize,
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
    "drop_mask",
    "mac",
    "masked_weights",
    "mean_energy",
    "quantize",
    "__version__",
]

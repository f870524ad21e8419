"""Functional and energy models of digital, TD-MS, and HD-MS multiply-accumulate units.

One ``mac`` serves all three models: every model computes the same value
(signed integer product plus a 24-bit accumulator) and differs only in the
energy it is charged and the oscillator (DCO) cycles it runs:

* digital   - energy depends on bit width only, quadratic in b; no cycles.
* tdms      - a pulse-width/counter scheme: one oscillator cycle per unit of
              x*w, so energy is affine in the product magnitude.
* hdms      - pure TD-MS up to 5-bit operands; above that, both operands are
              split into a low 5-bit and a high (b-5)-bit chunk and the four
              partial products run on the 5-bit kernel with digital shift-add.

``energy_table`` is the one place that maps a model to its energy formula;
``mac``, ``mean_energy`` and ``array_pricer`` price from it. All energies
scale with the square of the supply voltage relative to the calibration
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

MIN_BITS = 3
MAX_BITS = 8
TDMS_KERNEL_BITS = 5  # widest operand the pure time-domain kernel accepts

# Accumulator is 24-bit signed; overflow raises, never wraps.
ACC_BITS = 24
ACC_MIN = -(1 << (ACC_BITS - 1))
ACC_MAX = (1 << (ACC_BITS - 1)) - 1

MODELS = ("digital", "tdms", "hdms")


class CalibrationError(RuntimeError):
    """Raised when no non-negative coefficients can reproduce the anchors."""


def check_int(value, name: str) -> int:
    """``value`` as an int: numpy integers pass, bools and other types raise ``TypeError``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(value, name: str) -> None:
    """Raise ``TypeError`` if ``value`` is a bool, which would pass every range
    check as 0 or 1. The caller checks the range."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def check_bool(value, name: str) -> None:
    """Raise ``TypeError`` unless ``value`` is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a bool, got {value!r}")


def check_bits(bits: int) -> int:
    bits = check_int(bits, "bit width")
    if not MIN_BITS <= bits <= MAX_BITS:
        raise ValueError(f"bit width must be in [{MIN_BITS}, {MAX_BITS}], got {bits}")
    return bits


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"unknown MAC model {model!r}; expected one of {MODELS}")
    return model


@dataclass(frozen=True)
class Operand:
    """Sign-magnitude operand: non-negative magnitude plus a sign in {+1, -1}."""

    magnitude: int
    sign: int = 1

    def __post_init__(self):
        if check_int(self.sign, "sign") not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if check_int(self.magnitude, "magnitude") < 0:
            raise ValueError(f"magnitude must be non-negative, got {self.magnitude}")

    @property
    def value(self) -> int:
        return self.sign * self.magnitude

    def check_fits(self, bits: int) -> None:
        if self.magnitude >= (1 << bits):
            raise ValueError(
                f"magnitude {self.magnitude} does not fit in {bits} bits"
            )


@dataclass(frozen=True)
class MacResult:
    """Outcome of one multiply-accumulate: value, charged energy, cycle count."""

    value: int
    energy_pj: float
    dco_cycles: int
    kernel_passes: int = 1


@dataclass(frozen=True)
class EnergyParams:
    """Calibrated coefficients of the three energy models plus supply scaling.

    Digital energy per MAC:  c_d2*b^2 + c_d1*b + c_d0          [pJ]
    TD-MS energy per MAC:    e_0 + e_cyc*cycles + e_tr*b       [pJ]
    HD-MS adds e_sa per extra kernel pass beyond the first.
    Every figure is multiplied by (v_supply / v_ref)^2.
    """

    c_d2: float
    c_d1: float
    c_d0: float
    e_0: float
    e_cyc: float
    e_tr: float
    e_sa: float
    v_supply: float = 0.4
    v_ref: float = 0.4

    def __post_init__(self):
        for name in ("c_d2", "c_d1", "c_d0", "e_0", "e_cyc", "e_tr", "e_sa"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be in [0, inf), got {getattr(self, name)}")
        for name in ("v_supply", "v_ref"):
            v = getattr(self, name)
            if not 0.4 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0.4, 1.0] V, got {v}")

    @property
    def voltage_scale(self) -> float:
        return (self.v_supply / self.v_ref) ** 2

    def at_voltage(self, v_supply: float) -> "EnergyParams":
        return replace(self, v_supply=v_supply)


# ---------------------------------------------------------------------------
# quantization front-end


def quantize_mags(v, bits: int, value_range: float):
    """Operand magnitudes of reals ``v`` at ``bits`` bits over
    [-value_range, value_range]: |v| saturates at the range, then rounds to
    nearest (half up). The one rounding rule every front end shares; it does
    not validate (hot path), so callers check finiteness, bits and range."""
    full = (1 << bits) - 1
    return (np.minimum(np.abs(v), value_range) / value_range * full + 0.5).astype(np.int64)


def quantize_mag(x: float, bits: int, value_range: float) -> int:
    """``quantize_mags`` of one real, in Python arithmetic (same rule, same
    float operations, no validation)."""
    return int(min(abs(x), value_range) / value_range * ((1 << bits) - 1) + 0.5)


def quantize(x: float, bits: int, value_range: float) -> Operand:
    """Map a real in [-value_range, value_range] to a ``bits``-bit sign-magnitude
    operand, rounding to nearest and saturating at full scale."""
    bits = check_bits(bits)
    if not np.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    if not 0 < value_range < np.inf:
        raise ValueError(f"quantize range must be in (0, inf), got {value_range}")
    return Operand(quantize_mag(x, bits, value_range), sign=1 if x >= 0 else -1)


def dequantize(op: Operand, bits: int, value_range: float) -> float:
    bits = check_bits(bits)
    op.check_fits(bits)
    if not 0 < value_range < np.inf:
        raise ValueError(f"dequantize range must be in (0, inf), got {value_range}")
    return op.sign * op.magnitude / ((1 << bits) - 1) * value_range


# ---------------------------------------------------------------------------
# energy primitives (pJ, before voltage scaling unless noted)


def digital_energy(bits: int, params: EnergyParams) -> float:
    """Energy of one digital MAC; independent of operand values."""
    return (params.c_d2 * bits * bits + params.c_d1 * bits + params.c_d0) * params.voltage_scale


def tdms_energy(cycles, bits: int, params: EnergyParams):
    """Energy of one TD-MS MAC with the given oscillator cycle count.

    Accepts a scalar or ndarray of cycle counts.
    """
    return (params.e_0 + params.e_cyc * np.asarray(cycles, dtype=float) + params.e_tr * bits) * params.voltage_scale


def _chunk_cycles(x_mag, w_mag):
    """Oscillator cycles of the four low/high chunk partial products, each on
    the 5-bit kernel (operands wider than the kernel): xl*wl + xl*wh + xh*wl
    + xh*wh, which factors into ds(x)*ds(w) with ds(m) = low(m) + high(m)."""
    low_mask = (1 << TDMS_KERNEL_BITS) - 1
    return (((x_mag & low_mask) + (x_mag >> TDMS_KERNEL_BITS))
            * ((w_mag & low_mask) + (w_mag >> TDMS_KERNEL_BITS)))


def hdms_energy(x_mag, w_mag, bits: int, params: EnergyParams):
    """Energy of one HD-MS MAC (scalar or ndarray operand magnitudes)."""
    if bits <= TDMS_KERNEL_BITS:
        return tdms_energy(np.asarray(x_mag) * np.asarray(w_mag), bits, params)
    cycles = _chunk_cycles(np.asarray(x_mag), np.asarray(w_mag))
    base = (
        4.0 * params.e_0
        + params.e_cyc * cycles.astype(float)
        + 4.0 * params.e_tr * TDMS_KERNEL_BITS
        + 3.0 * params.e_sa
    )
    return base * params.voltage_scale


# ---------------------------------------------------------------------------
# MAC operations


def mac(model: str, x: Operand, w: Operand, acc: int, params: EnergyParams, bits: int) -> MacResult:
    """One multiply-accumulate under ``model``: ``acc`` plus the signed
    product, priced from ``energy_table``. Digital runs no oscillator cycles;
    TD-MS, and HD-MS up to 5 bits, count x*w cycles in one kernel pass; wider
    HD-MS operands run the four chunk partial products in 4 passes."""
    check_model(model)
    bits = check_bits(bits)
    x.check_fits(bits)
    w.check_fits(bits)
    acc = check_int(acc, "accumulator")
    if not ACC_MIN <= acc <= ACC_MAX:
        raise OverflowError(f"accumulator input {acc} outside {ACC_BITS}-bit signed range")
    product = x.magnitude * w.magnitude
    value = acc + x.sign * w.sign * product
    if not ACC_MIN <= value <= ACC_MAX:
        raise OverflowError(
            f"accumulator overflow: {acc} + {value - acc} leaves {ACC_BITS}-bit signed range"
        )
    if model == "digital":
        cycles, passes = 0, 1
    elif model == "hdms" and bits > TDMS_KERNEL_BITS:
        cycles, passes = _chunk_cycles(x.magnitude, w.magnitude), 4
    else:
        cycles, passes = product, 1
    energy = float(energy_table(bits, model, params)[x.magnitude, w.magnitude])
    return MacResult(value=value, energy_pj=energy, dco_cycles=cycles, kernel_passes=passes)


# ---------------------------------------------------------------------------
# energy tables


@lru_cache(maxsize=32)
def energy_table(bits: int, model: str, params: EnergyParams) -> np.ndarray:
    """Read-only per-MAC energy (pJ) over the full magnitude grid, indexed
    ``[x_mag, w_mag]``; built once per (bits, model, params). Every entry
    point that prices a MAC looks its table up here, so this is where a
    ``params`` that is not an ``EnergyParams`` raises ``TypeError``."""
    if not isinstance(params, EnergyParams):
        raise TypeError(f"params must be EnergyParams, got {params!r}")
    bits = check_bits(bits)
    mags = np.arange(1 << bits)
    if check_model(model) == "digital":
        table = np.full((mags.size, mags.size), digital_energy(bits, params))
    elif model == "tdms":
        table = tdms_energy(mags[:, None] * mags, bits, params)
    else:
        table = hdms_energy(mags[:, None], mags, bits, params)
    table.flags.writeable = False
    return table


def array_pricer(bits: int, model: str, params: EnergyParams):
    """A function ``price(x_mag, w_mag)``: the total energy (pJ) of pairing
    each weight magnitude in ``w_mag`` (one entry per MAC) with its input
    magnitude in ``x_mag``, which broadcasts against it. The energy table is
    looked up once, here, so a hot loop pays only the gather."""
    table = energy_table(bits, model, params)
    if model == "digital":
        per_mac = float(table[0, 0])
        # n * e: a summed gather of the constant table differs by up to 1.6e-16
        return lambda x_mag, w_mag: float(np.size(w_mag) * per_mac)
    return lambda x_mag, w_mag: float(table[x_mag, w_mag].sum())


def mean_energy(model: str, bits: int, params: EnergyParams) -> float:
    """Mean per-MAC energy over all (x, w) magnitude pairs at ``bits``."""
    return float(energy_table(bits, model, params).mean())


# ---------------------------------------------------------------------------
# calibration

# Measured-chip anchor points: (bits, mean pJ/MAC, ratio to digital).
REFERENCE_ANCHORS = ((3, 0.22, 0.19), (8, 1.76, 0.69))

_CALIBRATION_REL_TOL = 0.5  # beyond this the anchor set is declared infeasible


def _fit_nonneg(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    # scipy.optimize.nnls (>=1.12 rewrite) returns wrong answers on some small
    # systems; lsq_linear/trf is reliable and deterministic. The digital fit is
    # underdetermined (3 unknowns, 2 anchors), so another solver would pick a
    # different solution. Imported here: scipy costs ~0.6 s and ~50 MB to load,
    # and only custom calibrations need it (see DEFAULT_PARAMS).
    from scipy.optimize import lsq_linear

    res = lsq_linear(a, t, bounds=(0.0, np.inf), method="trf")
    return np.clip(res.x, 0.0, None)


def _hdms_unit_columns(bits_list) -> np.ndarray:
    """Design matrix of mean HD-MS energy per unit (e_0, e_cyc, e_tr, e_sa)."""
    names = ("e_0", "e_cyc", "e_tr", "e_sa")
    a = np.zeros((len(bits_list), len(names)))
    base = EnergyParams(c_d2=0, c_d1=0, c_d0=0, e_0=0, e_cyc=0, e_tr=0, e_sa=0)
    for j, name in enumerate(names):
        unit = replace(base, **{name: 1.0})
        for i, b in enumerate(bits_list):
            a[i, j] = mean_energy("hdms", b, unit)
    return a


def calibrate_energy(anchors=REFERENCE_ANCHORS) -> EnergyParams:
    """Fit non-negative energy coefficients so the mean HD-MS energy over
    uniform operands hits each anchor's target, and the digital model hits
    target / ratio.

    The TD-MS side is fit in two stages: transition and shift-add overheads
    are seeded with a fixed 5% energy share (they are secondary effects; the
    oscillator cycles dominate), then e_0 and e_cyc absorb the rest by
    least squares. Both stages are deterministic. Raises CalibrationError
    when the best fit misses an anchor by more than 50% relative.
    """
    anchors = [(check_bits(b), float(e), float(r)) for b, e, r in anchors]
    if len(anchors) < 2:
        raise ValueError("calibration needs at least 2 anchors")
    for b, e, r in anchors:
        if e <= 0 or r <= 0:
            raise ValueError(f"anchor targets must be positive, got {(b, e, r)}")

    bits_list = [b for b, _, _ in anchors]
    hdms_targets = np.array([e for _, e, _ in anchors])
    dig_targets = np.array([e / r for _, e, r in anchors])

    a_dig = np.array([[b * b, b, 1.0] for b in bits_list])
    dig_coefs = _fit_nonneg(a_dig, dig_targets)

    a_hdms = _hdms_unit_columns(bits_list)
    lo = int(np.argmin(bits_list))
    hi = int(np.argmax(bits_list))
    e_tr = 0.05 * hdms_targets[lo] / a_hdms[lo, 2]
    e_sa = 0.05 * hdms_targets[hi] / a_hdms[hi, 3] if a_hdms[hi, 3] > 0 else 0.0
    seeded = a_hdms[:, 2] * e_tr + a_hdms[:, 3] * e_sa
    # keep at least 75% of each target for the main-stage fit
    excess = seeded / hdms_targets
    if excess.max() > 0.25:
        shrink = 0.25 / excess.max()
        e_tr *= shrink
        e_sa *= shrink
        seeded *= shrink
    main_coefs = _fit_nonneg(a_hdms[:, :2], hdms_targets - seeded)

    params = EnergyParams(
        c_d2=float(dig_coefs[0]), c_d1=float(dig_coefs[1]), c_d0=float(dig_coefs[2]),
        e_0=float(main_coefs[0]), e_cyc=float(main_coefs[1]),
        e_tr=float(e_tr), e_sa=float(e_sa),
        v_supply=0.4, v_ref=0.4,
    )

    residuals = []
    for b, target_e, target_r in anchors:
        got_e = mean_energy("hdms", b, params)
        got_d = mean_energy("digital", b, params)
        residuals.append((b, got_e, target_e, got_d, target_e / target_r))
    worst = max(
        max(abs(ge - te) / te, abs(gd - td) / td) for _, ge, te, gd, td in residuals
    )
    if worst > _CALIBRATION_REL_TOL:
        lines = ", ".join(
            f"b={b}: hdms {ge:.4g} vs {te:.4g}, digital {gd:.4g} vs {td:.4g}"
            for b, ge, te, gd, td in residuals
        )
        raise CalibrationError(f"anchors infeasible (worst relative error {worst:.2f}): {lines}")
    return params


# calibrate_energy(REFERENCE_ANCHORS) written out as its repr floats, so no
# process pays for the fit (or for importing scipy) to get the default.
# tests/test_macmodel.py pins the two as equal field by field.
DEFAULT_PARAMS = EnergyParams(
    c_d2=0.01882220055624959, c_d1=0.07152177404906544, c_d0=0.7739296096886625,
    e_0=0.17905555555555594, e_cyc=0.002444444444444441,
    e_tr=0.003666666666666667, e_sa=0.029333333333333336,
    v_supply=0.4, v_ref=0.4,
)


def default_params() -> EnergyParams:
    """Parameters calibrated against the reference chip anchors."""
    return DEFAULT_PARAMS


# ---------------------------------------------------------------------------
# params file round-trip (one `key = value` line per coefficient)

_PARAM_FIELDS = ("c_d2", "c_d1", "c_d0", "e_0", "e_cyc", "e_tr", "e_sa", "v_supply", "v_ref")


def save_energy_params(params: EnergyParams, path) -> None:
    lines = [f"{name} = {getattr(params, name)!r}" for name in _PARAM_FIELDS]
    Path(path).write_text("\n".join(lines) + "\n")


def load_energy_params(path) -> EnergyParams:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARAM_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown coefficient {key!r}")
        values[key] = float(val)
    missing = [k for k in _PARAM_FIELDS if k not in values and not k.startswith("v_")]
    if missing:
        raise ValueError(f"{path}: missing coefficients {missing}")
    return EnergyParams(**values)

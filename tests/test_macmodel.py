from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesim import macmodel as mm
from edgesim import qnav, swarmlab
from edgesim.macmodel import (
    EnergyParams,
    Operand,
    calibrate_energy,
    default_params,
    dequantize,
    mac,
    mean_energy,
    quantize,
)
from edgesim.stochsyn import Lfsr


@pytest.fixture(scope="module")
def params():
    return default_params()


# ---------------------------------------------------------------------------
# quantization


def test_quantize_zero():
    op = quantize(0.0, 3, 1.0)
    assert op.magnitude == 0 and op.sign == 1


def test_quantize_full_scale():
    assert quantize(1.0, 3, 1.0).magnitude == 7


def test_quantize_saturates():
    assert quantize(2.0, 4, 1.0).magnitude == 15
    assert quantize(-2.0, 4, 1.0) == Operand(15, -1)


def test_quantize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quantize(float("nan"), 4, 1.0)
    with pytest.raises(ValueError):
        quantize(float("inf"), 4, 1.0)
    with pytest.raises(ValueError):
        quantize(0.5, 4, 0.0)
    with pytest.raises(ValueError):
        quantize(0.5, 2, 1.0)


@pytest.mark.parametrize("value_range", [0.0, -1.0, np.inf, -np.inf, np.nan])
def test_quantize_ranges_must_be_positive_and_finite(value_range):
    # an infinite range quantized every real to 0, and a NaN range failed
    # inside int() or dequantized to NaN
    with pytest.raises(ValueError, match=r"quantize range must be in \(0, inf\)"):
        quantize(0.5, 4, value_range)
    with pytest.raises(ValueError, match=r"dequantize range must be in \(0, inf\)"):
        dequantize(Operand(3), 4, value_range)


def test_quantize_roundtrip_error_bound():
    rng = np.random.default_rng(7)
    for bits in range(3, 9):
        for x in rng.uniform(-1.5, 1.5, size=200):
            op = quantize(float(x), bits, 1.0)
            back = dequantize(op, bits, 1.0)
            clamped = min(max(x, -1.0), 1.0)
            assert abs(back - clamped) <= 1.0 / (1 << bits)


# The four rounding rules that quantize_mags replaced, written out as oracles.
# Rules that round before they saturate are defined only while the scaled
# magnitude stays finite (scalar: int(inf) raises) or fits int64 (array:
# astype is undefined beyond it); quantize_mags saturates first, so it is
# defined for every finite input.


def _scalar_rule(x, bits, r):  # quantize: round, then min(..., full)
    full = (1 << bits) - 1
    return min(int(abs(x) / r * full + 0.5), full)


def _qnetwork_rule(v, bits, r):  # QNetwork.quantized: clip, then round
    full = (1 << bits) - 1
    return (np.abs(np.clip(v, -r, r)) / r * full + 0.5).astype(np.int64)


def _lpu_rule(v, bits, r):  # LpuMeter: min(|v|, r), then round
    full = (1 << bits) - 1
    return (np.minimum(np.abs(v), r) / r * full + 0.5).astype(np.int64)


def _qvalue_rule(v, bits, r):  # _quantize_qvalues: round, then clamp
    full = (1 << bits) - 1
    return np.minimum((np.abs(v) / r * full + 0.5).astype(np.int64), full)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    bits=st.integers(mm.MIN_BITS, mm.MAX_BITS),
    r=st.one_of(st.sampled_from([1.0, 8.0, 10.0, 100.0]),
                st.floats(min_value=1e-3, max_value=1e3)),
)
@example(values=[0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1.7e308], bits=3, r=1.0)
@example(values=[0.5 / 7, -0.5 / 7, 1.0, -1.0, 1.0 + 2**-52, 9.0], bits=3, r=8.0)
def test_quantize_mags_matches_every_old_rule(values, bits, r):
    v = np.array(values)
    got = mm.quantize_mags(v, bits, r)
    assert got.dtype == np.int64
    assert np.array_equal(got, _qnetwork_rule(v, bits, r))
    assert np.array_equal(got, _lpu_rule(v, bits, r))
    full = (1 << bits) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(v) / r * full + 0.5
        fits = scaled < 2.0**63
        assert np.array_equal(got[fits], _qvalue_rule(v, bits, r)[fits])
    for x, mag, finite in zip(values, got, np.isfinite(scaled)):
        assert quantize(x, bits, r).magnitude == mag
        assert mm.quantize_mag(x, bits, r) == mag
        if finite:
            assert _scalar_rule(x, bits, r) == mag


# ---------------------------------------------------------------------------
# value contract


def test_tdms_zero_pulse():
    r = mac("tdms", Operand(0), Operand(5), 0, default_params(), 4)
    assert r.value == 0 and r.dco_cycles == 0


def test_tdms_product(params):
    r = mac("tdms", Operand(5), Operand(3), 0, params, 5)
    assert r.value == 15 and r.dco_cycles == 15


def test_digital_product(params):
    assert mac("digital", Operand(7), Operand(7), 0, params, 3).value == 49


def test_signs_and_accumulator(params):
    r = mac("tdms", Operand(5, -1), Operand(3), 10, params, 4)
    assert r.value == 10 - 15
    r = mac("hdms", Operand(9, -1), Operand(9, -1), -4, params, 4)
    assert r.value == -4 + 81


def test_exhaustive_products_5bit(params):
    # brute-force integer-multiply oracle over every pair at b=5
    for x in range(32):
        for w in range(32):
            expected = x * w
            assert mac("tdms", Operand(x), Operand(w), 0, params, 5).value == expected
            assert mac("hdms", Operand(x), Operand(w), 0, params, 5).value == expected
            assert mac("digital", Operand(x), Operand(w), 0, params, 5).value == expected


def test_exhaustive_hdms_high_bits(params):
    # spot-check the mac function against the scalar energy primitive
    for bits in (6, 7, 8):
        n = 1 << bits
        rng = np.random.default_rng(bits)
        for x, w in rng.integers(0, n, size=(50, 2)):
            r = mac("hdms", Operand(int(x)), Operand(int(w)), 0, params, bits)
            assert r.value == int(x) * int(w)
            assert r.energy_pj == float(mm.hdms_energy(int(x), int(w), bits, params))


def test_hdms_chunks_exhaustive_high_bits(params):
    # above 5 bits each magnitude splits into a low 5-bit and a high chunk;
    # the four chunk partial products run on the kernel, shifted by 0, 5, 5, 10
    for bits in (6, 7, 8):
        ops = [Operand(m) for m in range(1 << bits)]
        for x in ops:
            xl, xh = x.magnitude & 31, x.magnitude >> 5
            for w in ops:
                wl, wh = w.magnitude & 31, w.magnitude >> 5
                r = mac("hdms", x, w, 0, params, bits)
                assert r.value == x.magnitude * w.magnitude == (
                    xl * wl + (xl * wh << 5) + (xh * wl << 5) + (xh * wh << 10))
                assert r.dco_cycles == xl * wl + xl * wh + xh * wl + xh * wh
                assert r.kernel_passes == 4


def test_plan_8bit_shifts(params):
    # at 8 bits the four partial products run in 4 passes, shifted by 0, 5, 5, 10:
    # one unit in each chunk pair lands at 1, 32, 32 and 1024
    for (x, w), value in {(1, 1): 1, (1, 32): 32, (32, 1): 32, (32, 32): 1024}.items():
        r = mac("hdms", Operand(x), Operand(w), 0, params, 8)
        assert r.value == value
        assert r.dco_cycles == 1
        assert r.kernel_passes == 4
    # the low chunk is 5 bits wide and the high chunk the remaining 3
    top = mac("hdms", Operand(255), Operand(255), 0, params, 8)
    assert top.dco_cycles == (31 + 7) * (31 + 7)


def test_plan_roundtrip_all_8bit_values(params):
    # every 8-bit magnitude splits into chunks that re-add to itself: against
    # w = 1 the value is the magnitude and the cycles are the chunk sum
    one = Operand(1)
    for v in range(256):
        r = mac("hdms", Operand(v), one, 0, params, 8)
        assert r.value == (v & 31) + ((v >> 5) << 5) == v
        assert r.dco_cycles == (v & 31) + (v >> 5)


def test_hdms_worked_decomposition(params):
    # 171 = (5 << 5) + 11, 200 = (6 << 5) + 8
    r = mac("hdms", Operand(171), Operand(200), 0, params, 8)
    assert r.value == 171 * 200 == 34200
    assert r.dco_cycles == 11 * 8 + 11 * 6 + 5 * 8 + 5 * 6
    assert r.kernel_passes == 4


def test_hdms_below_threshold_matches_tdms(params):
    a = mac("hdms", Operand(9), Operand(9), 0, params, 4)
    b = mac("tdms", Operand(9), Operand(9), 0, params, 4)
    assert a == b
    for bits in (3, 4, 5):  # one kernel pass up to the 5-bit kernel
        top = Operand((1 << bits) - 1)
        r = mac("hdms", top, top, 0, params, bits)
        assert r == mac("tdms", top, top, 0, params, bits)
        assert r.kernel_passes == 1


def test_operand_range_checks(params):
    with pytest.raises(ValueError):
        mac("tdms", Operand(8), Operand(1), 0, params, 3)
    with pytest.raises(ValueError):
        Operand(-1)
    with pytest.raises(ValueError):
        Operand(3, 0)


@pytest.mark.parametrize("magnitude", [2.5, 3.0, np.float64(3.0), True, "3"])
def test_operand_rejects_non_integer_magnitude(params, magnitude):
    with pytest.raises(TypeError, match="magnitude"):
        mac("tdms", Operand(magnitude), Operand(3), 0, params, 3)
    assert Operand(np.int64(3)).value == 3


@pytest.mark.parametrize("sign", [1.0, -1.0, np.float64(-1.0), True, "1"])
def test_operand_rejects_non_integer_sign(params, sign):
    # a float sign would make mac return a float value
    with pytest.raises(TypeError, match="sign"):
        mac("tdms", Operand(3, sign), Operand(2), 0, params, 4)
    assert Operand(3, np.int64(-1)).value == -3


def test_dequantize_rejects_operand_wider_than_bits():
    # a magnitude past the bit width would dequantize outside the range
    with pytest.raises(ValueError, match="does not fit in 4 bits"):
        dequantize(Operand(300), 4, 1.0)
    with pytest.raises(ValueError, match="does not fit in 4 bits"):
        dequantize(Operand(16, -1), 4, 1.0)
    assert dequantize(Operand(15, -1), 4, 1.0) == -1.0


def test_accumulator_overflow_raises(params):
    big = mm.ACC_MAX
    with pytest.raises(OverflowError):
        mac("tdms", Operand(2), Operand(2), big, params, 3)
    with pytest.raises(OverflowError):
        mac("digital", Operand(2, -1), Operand(2), mm.ACC_MIN, params, 3)


@pytest.mark.parametrize("acc", [2.5, 2.0, np.float64(2.0), True, "2"])
def test_mac_rejects_non_integer_accumulator(params, acc):
    # a float accumulator returned a float value, and True counted as 1
    for model in mm.MODELS:
        with pytest.raises(TypeError, match="accumulator"):
            mac(model, Operand(3), Operand(4), acc, params, 3)
    r = mac("tdms", Operand(3), Operand(4), np.int64(2), params, 3)
    assert r.value == 14 and type(r.value) is int


# ---------------------------------------------------------------------------
# energy model properties


def test_digital_energy_operand_invariant(params):
    e1 = mac("digital", Operand(1), Operand(1), 0, params, 8).energy_pj
    e2 = mac("digital", Operand(255), Operand(255), 0, params, 8).energy_pj
    assert e1 == e2


def test_tdms_energy_monotone_in_product(params):
    mags = np.arange(64)
    order = np.argsort(np.multiply.outer(mags, mags).ravel(), kind="stable")
    energies = mm.energy_table(6, "tdms", params).ravel()[order]
    assert np.all(np.diff(energies) >= 0)


def test_tdms_zero_cycle_entry(params):
    table = mm.energy_table(6, "tdms", params)
    expected = (params.e_0 + params.e_tr * 6) * params.voltage_scale
    assert table[0, 17] == pytest.approx(expected)


def test_tdms_surface_max_at_corner(params):
    table = mm.energy_table(6, "tdms", params)
    i, j = np.unravel_index(np.argmax(table), table.shape)
    assert (i, j) == (63, 63)


def test_digital_surface_constant(params):
    assert np.ptp(mm.energy_table(6, "digital", params)) == 0.0


def test_voltage_scaling_quadratic(params):
    lo = params.at_voltage(0.4)
    hi = params.at_voltage(0.8)
    for model in mm.MODELS:
        e_lo = mm.mac(model, Operand(5), Operand(6), 0, lo, 6).energy_pj
        e_hi = mm.mac(model, Operand(5), Operand(6), 0, hi, 6).energy_pj
        assert e_hi == 4.0 * e_lo


def test_voltage_out_of_range():
    p = default_params()
    with pytest.raises(ValueError):
        p.at_voltage(0.3)
    with pytest.raises(ValueError):
        p.at_voltage(1.1)


def test_params_hash_follows_fields(params):
    # energy_table's cache keys on the params: equal fields must share a
    # cache entry, and a changed field must not
    twin = replace(params)
    assert twin is not params and hash(twin) == hash(params)
    assert mm.energy_table(6, "tdms", twin) is mm.energy_table(6, "tdms", params)
    other = params.at_voltage(0.7)
    assert other != params and hash(other) != hash(params)
    assert mm.energy_table(6, "tdms", other)[5, 5] != mm.energy_table(6, "tdms", params)[5, 5]


ENTRY_POINTS = {
    "mac": lambda p: mac("tdms", Operand(1), Operand(1), 0, p, 5),
    "LpuMeter": lambda p: swarmlab.LpuMeter(5, p),
    "run_workload": lambda p: swarmlab.run_workload(
        swarmlab.make_scenario("explore", 3, seed=1), params=p, budget=1),
    "run_training": lambda p: qnav.run_training(
        qnav.default_arena(), qnav.TrainConfig(episodes=1, max_steps=1), 0xACE1, params=p),
    "q_forward": lambda p: qnav.q_forward(qnav.init_network(Lfsr(0xACE1))[0],
                                          np.zeros(3, dtype=np.int64), params=p),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["x", 0.4])
def test_entry_points_reject_params_of_another_type(entry, bad):
    # each failed inside the energy formulas with AttributeError: 'str'
    # object has no attribute 'e_0'
    with pytest.raises(TypeError, match="params"):
        ENTRY_POINTS[entry](bad)


def test_surface_is_full_grid(params):
    table = mm.energy_table(4, "hdms", params)
    assert table.shape == (16, 16)
    assert table[3, 12] == mm.tdms_energy(3 * 12, 4, params)
    # every model's table is its energy primitive over the whole magnitude grid
    for bits in range(mm.MIN_BITS, mm.MAX_BITS + 1):
        mags = np.arange(1 << bits)
        expected = {
            "digital": np.full((mags.size, mags.size), mm.digital_energy(bits, params)),
            "tdms": mm.tdms_energy(np.multiply.outer(mags, mags), bits, params),
            "hdms": mm.hdms_energy(mags[:, None], mags, bits, params),
        }
        for model in mm.MODELS:
            assert np.array_equal(mm.energy_table(bits, model, params), expected[model]), (model, bits)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_hits_reference_anchors():
    p = calibrate_energy()
    assert mean_energy("hdms", 3, p) == pytest.approx(0.22, rel=0.10)
    assert mean_energy("hdms", 8, p) == pytest.approx(1.76, rel=0.10)


def test_calibration_energy_ratios():
    p = calibrate_energy()
    assert mean_energy("hdms", 3, p) / mean_energy("digital", 3, p) == pytest.approx(0.19, abs=0.05)
    assert mean_energy("hdms", 8, p) / mean_energy("digital", 8, p) == pytest.approx(0.69, abs=0.05)


def test_calibration_deterministic():
    a = calibrate_energy(((3, 0.22, 0.19), (3, 0.22, 0.19), (8, 1.76, 0.69)))
    b = calibrate_energy(((3, 0.22, 0.19), (3, 0.22, 0.19), (8, 1.76, 0.69)))
    assert a == b


def test_calibration_digital_level():
    p = calibrate_energy()
    # 81% reduction anchor: digital at 3-bit is 0.22 / 0.19
    assert mean_energy("digital", 3, p) == pytest.approx(0.22 / 0.19, rel=0.02)


def test_calibration_crossovers():
    p = calibrate_energy()
    for b in (3, 4, 5):
        assert mean_energy("tdms", b, p) < mean_energy("digital", b, p)
    for b in (6, 7, 8):
        assert mean_energy("hdms", b, p) < mean_energy("tdms", b, p)


def test_default_params_equal_reference_calibration():
    fitted = calibrate_energy(mm.REFERENCE_ANCHORS)
    pinned = default_params()
    for name in ("c_d2", "c_d1", "c_d0", "e_0", "e_cyc", "e_tr", "e_sa", "v_supply", "v_ref"):
        assert getattr(pinned, name) == getattr(fitted, name), (
            f"{name}: pinned {getattr(pinned, name)!r} != fitted {getattr(fitted, name)!r}; "
            "if REFERENCE_ANCHORS or the fit changed, rewrite macmodel.DEFAULT_PARAMS "
            "with the repr of calibrate_energy(REFERENCE_ANCHORS)"
        )


def test_default_params_is_one_object():
    assert default_params() is default_params()


def test_calibration_rejects_bad_anchors():
    with pytest.raises(ValueError):
        calibrate_energy(((3, 0.22, 0.19),))
    with pytest.raises(ValueError):
        calibrate_energy(((3, -1.0, 0.19), (8, 1.76, 0.69)))
    with pytest.raises(mm.CalibrationError):
        # decreasing energy with rising bit width cannot be matched by
        # non-negative coefficients
        calibrate_energy(((3, 100.0, 0.19), (8, 0.001, 0.69)))


# ---------------------------------------------------------------------------
# params file round-trip


def test_params_file_roundtrip(tmp_path, params):
    path = tmp_path / "params.txt"
    mm.save_energy_params(params, path)
    loaded = mm.load_energy_params(path)
    assert loaded == params


def test_params_reject_nan_coefficients(tmp_path, params):
    for name in ("c_d2", "c_d1", "c_d0", "e_0", "e_cyc", "e_tr", "e_sa"):
        with pytest.raises(ValueError, match=name):
            replace(params, **{name: float("nan")})
    path = tmp_path / "params.txt"
    mm.save_energy_params(params, path)
    path.write_text(path.read_text().replace(f"e_cyc = {params.e_cyc!r}", "e_cyc = nan"))
    with pytest.raises(ValueError, match="e_cyc"):
        mm.load_energy_params(path)


@pytest.mark.parametrize("value", [np.inf, -np.inf, -1e-9])
def test_params_coefficients_must_be_finite_and_non_negative(params, value):
    # an infinite coefficient would price every MAC at inf
    for name in ("c_d2", "c_d1", "c_d0", "e_0", "e_cyc", "e_tr", "e_sa"):
        with pytest.raises(ValueError, match=rf"{name} must be in \[0, inf\)"):
            replace(params, **{name: value})
    assert replace(params, e_0=0.0).e_0 == 0.0


def test_params_file_rejects_garbage(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("c_d2 = 0.1\nwat = 3\n")
    with pytest.raises(ValueError):
        mm.load_energy_params(path)

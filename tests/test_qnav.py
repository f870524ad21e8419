import dataclasses
import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesim import macmodel as mm
from edgesim import qnav
from edgesim.macmodel import Operand, default_params
from edgesim.qnav import (
    Arena,
    ArenaError,
    QNetwork,
    RobotState,
    Scratchpad,
    TrainConfig,
    apply_action,
    bellman_target,
    default_arena,
    init_network,
    proximity,
    q_forward,
    run_policy,
    run_training,
    select_action,
    sense,
    train_step,
)
from edgesim.stochsyn import BITS_PER_SAMPLE, LFSR_PERIOD, Lfsr, _cycle_tables, drop_mask


@pytest.fixture(scope="module")
def params():
    return default_params()


SMALL_ARENA = Arena.from_text(
    """\
######
#....#
#....#
#....#
#S...#
######
"""
)


# ---------------------------------------------------------------------------
# arena and sensing


def test_arena_from_text_roundtrip():
    a = SMALL_ARENA
    assert a.width == 6 and a.height == 6
    assert a.start == (1, 4)
    assert a.free_cells == 16


# the boundary walls of a 4x4 grid
WALLS_4X4 = frozenset((x, y) for x in range(4) for y in range(4) if {x, y} & {0, 3})


def test_arena_rejects_bad_grids():
    with pytest.raises(ArenaError):
        Arena.from_text("###\n#.#\n###")  # no start
    with pytest.raises(ArenaError):
        Arena.from_text("####\n#SS#\n####")
    with pytest.raises(ArenaError):
        Arena.from_text("####\n#S.#\n###")  # ragged
    with pytest.raises(ArenaError):
        Arena.from_text("####\n#S?#\n####")
    with pytest.raises(ArenaError):
        Arena.from_text("#.##\n#S.#\n####")  # open boundary
    for start in ((9, 9), (4, 1), (1, 4), (-1, 1), (1, -1)):
        with pytest.raises(ArenaError, match="outside the 4x4 grid"):
            Arena(4, 4, WALLS_4X4, start)


@pytest.mark.parametrize("width, height, start, error, field", [
    (4.0, 4, (1, 1), TypeError, "width"),
    (4, True, (1, 1), TypeError, "height"),
    (4, 4, (1.5, 1), TypeError, "start"),
    (4, 4, (1, np.float64(1.0)), TypeError, "start"),
    (4, 4, (1, 1, 0), ArenaError, "start"),
    (4, 4, (1,), ArenaError, "start"),
    (4, 4, [1, 1], ArenaError, "start"),
])
def test_arena_rejects_bad_fields(width, height, start, error, field):
    # the error names the field; a float or 3-tuple start would otherwise
    # construct and fail only inside run_policy, naming no field
    with pytest.raises(error, match=field):
        Arena(width, height, WALLS_4X4, start)


def test_arena_accepts_numpy_int_fields():
    arena = Arena(np.int64(4), 4, WALLS_4X4, (np.int64(1), 2))
    assert arena == Arena(4, 4, WALLS_4X4, (1, 2))


def test_arena_from_file(tmp_path):
    path = tmp_path / "arena.txt"
    path.write_text(qnav.DEFAULT_ARENA_TEXT)
    assert Arena.from_file(path) == default_arena()


def test_default_arena_sane():
    a = default_arena()
    assert a.width == a.height == 12
    assert a.free_cells == 87


def test_sense_adjacent_wall():
    # heading 2 is +y; the wall below the start row of SMALL_ARENA is adjacent
    r = sense(SMALL_ARENA, RobotState((1, 4), 2))
    assert r[1] == 1


def test_sense_saturates_at_max_range():
    rows = ["#" * 70, "#" + "." * 68 + "#", "#S" + "." * 67 + "#", "#" * 70]
    a = Arena.from_text("\n".join(rows))
    r = sense(a, RobotState(a.start, 0))  # heading +x down the corridor
    assert r[1] == 63


def test_sense_pure():
    s1 = sense(SMALL_ARENA, RobotState((2, 2), 3))
    s2 = sense(SMALL_ARENA, RobotState((2, 2), 3))
    assert np.array_equal(s1, s2)


def test_apply_action_collision_keeps_position():
    st = RobotState((1, 1), 4)  # heading -x, wall at x=0
    new, collided = apply_action(SMALL_ARENA, st, 0)
    assert collided and new == st


def test_apply_action_turns_do_not_move():
    st = RobotState((2, 2), 0)
    left, c1 = apply_action(SMALL_ARENA, st, 1)
    right, c2 = apply_action(SMALL_ARENA, st, 2)
    assert not c1 and not c2
    assert left.position == right.position == (2, 2)
    assert left.heading == 1 and right.heading == 7


# ---------------------------------------------------------------------------
# forward pass


def test_q_forward_zero_weights(params):
    net = QNetwork(w1=np.zeros((16, 3)), w2=np.zeros((4, 16)))
    q, _ = q_forward(net, proximity(np.array([3, 5, 7])), None, "tdms", params)
    assert np.all(q == 0)


@pytest.mark.parametrize("w1, w2, field", [
    ((16, 2), (4, 16), "w1"), ((16, 4), (4, 16), "w1"), ((48,), (4, 16), "w1"),
    ((16, 3, 1), (4, 16), "w1"), ((16, 3), (4, 15), "w2"), ((16, 3), (3, 16), "w2"),
    ((16, 3), (64,), "w2"),
])
def test_qnetwork_rejects_bad_layer_shapes(w1, w2, field):
    # the forward reads 3 rays into the first layer and one hidden unit per
    # column of the output layer
    with pytest.raises(ValueError, match=field):
        QNetwork(w1=np.zeros(w1), w2=np.zeros(w2))
    assert QNetwork(w1=np.zeros((5, 3)), w2=np.zeros((4, 5))).w2.shape == (4, 5)


@pytest.mark.parametrize("horizon, error", [(2.5, TypeError), (2.0, TypeError),
                                            (True, TypeError), (1, ValueError),
                                            (0, ValueError), (-3, ValueError)])
def test_qnetwork_rejects_bad_horizon(horizon, error):
    # a float horizon failed inside run_policy's right shift; at a horizon
    # below 2 every proximity reads 0, since a depth is at least 1
    with pytest.raises(error, match="horizon"):
        QNetwork(w1=np.zeros((16, 3)), w2=np.zeros((4, 16)), horizon=horizon)


def test_qnetwork_accepts_horizon_two():
    net = QNetwork(w1=np.ones((16, 3)), w2=np.ones((4, 16)), horizon=np.int64(2))
    assert qnav.proximity(np.array([1, 2, 3]), net.horizon).tolist() == [63, 0, 0]
    assert 1 <= run_policy(SMALL_ARENA, net, 0.0, 5, seed=7) <= SMALL_ARENA.free_cells


def test_qnetwork_layers_are_read_only(params):
    # a network is immutable: neither a reassigned layer nor a write into
    # one may change what it computes
    net, _ = init_network(Lfsr(0xACE1))
    x = proximity(np.array([2, 3, 4]))
    q, _ = q_forward(net, x, None, "tdms", params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.w1 = np.zeros_like(net.w1)
    for layer in (net.w1, net.w2):
        with pytest.raises(ValueError, match="read-only"):
            layer[0, 0] = 0.0
    assert np.array_equal(q_forward(net, x, None, "tdms", params)[0], q)


@pytest.mark.parametrize("layer", ["w1", "w2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("model", mm.MODELS)
def test_q_forward_rejects_non_finite_weights(params, layer, bad, model):
    # the forward skips its accumulator checks on layers too narrow to
    # overflow, which holds only for quantized magnitudes <= DEPTH_MAX
    net, _ = init_network(Lfsr(0xACE1))
    w = {"w1": net.w1.copy(), "w2": net.w2.copy()}
    w[layer][0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        q_forward(QNetwork(**w), proximity(np.array([2, 3, 4])), None, model, params)


def test_q_forward_all_drop_equals_zero_weights(params):
    net, _ = init_network(Lfsr(0xACE1))
    zeros = QNetwork(w1=np.zeros_like(net.w1), w2=np.zeros_like(net.w2))
    keep = np.zeros(net.w1.shape, dtype=bool)
    x = proximity(np.array([2, 4, 6]))
    q_masked, _ = q_forward(net, x, keep, "tdms", params)
    q_zero, _ = q_forward(zeros, x, None, "tdms", params)
    assert np.array_equal(q_masked, q_zero)


@pytest.mark.parametrize("x", [[-1, 0, 0], [0, 64, 0]])
def test_q_forward_rejects_out_of_range_operands(params, x):
    # a negative operand would index the energy table from its far end
    net, _ = init_network(Lfsr(0xACE1))
    with pytest.raises(ValueError):
        q_forward(net, np.array(x), None, "tdms", params)


@pytest.mark.parametrize("wide, message", [("hidden", "output-layer")])
def test_q_forward_accumulator_overflow(params, wide, message):
    # 2,200 full-scale products of 63 * 63 sum to 8,731,800, past the 24-bit
    # ACC_MAX of 8,388,607; a 3-input first layer saturates its hidden units
    # and cannot overflow itself
    n = 2200
    net = QNetwork(w1=np.ones((n, 3)), w2=np.ones((4, n)))
    x = np.full(3, qnav.DEPTH_MAX)
    with pytest.raises(OverflowError, match=message):
        q_forward(net, x, None, "tdms", params)


def test_q_forward_matches_per_mac_composition(params):
    # oracle: run the same forward as explicit per-element MAC ops, with a
    # first-layer drop mask whose dropped weights are priced at magnitude 0
    net, _ = init_network(Lfsr(0x1357))
    x = proximity(np.array([1, 4, 9]))
    mask1, _ = drop_mask(net.w1.shape, 0.25, Lfsr(0x2468))
    assert not mask1.all()
    w1 = [[mm.quantize(float(v), 6, 1.0) if k else Operand(0) for v, k in zip(row, keep)]
          for row, keep in zip(net.w1, mask1)]
    w2 = [[mm.quantize(float(v), 6, 1.0) for v in row] for row in net.w2]
    full = 63
    for model in mm.MODELS:
        q, energy = q_forward(net, x, mask1, model, params)
        acc1 = np.zeros(16, dtype=int)
        total_energy = 0.0
        for j in range(16):
            acc = 0
            for i in range(3):
                r = mm.mac(model, Operand(int(x[i])), w1[j][i], acc, params, 6)
                acc = r.value
                total_energy += r.energy_pj
            acc1[j] = acc
        hidden = np.minimum(np.maximum(acc1, 0) >> qnav.ACT_SHIFT, full)
        acc2 = np.zeros(4, dtype=int)
        for a in range(4):
            acc = 0
            for j in range(16):
                r = mm.mac(model, Operand(int(hidden[j])), w2[a][j], acc, params, 6)
                acc = r.value
                total_energy += r.energy_pj
            acc2[a] = acc
        assert np.array_equal(q, acc2 / float(full * full)), model
        assert energy == pytest.approx(total_energy, rel=1e-12), model


def test_q_forward_energy_models(params):
    net, _ = init_network(Lfsr(0x2222))
    s_near = proximity(np.array([1, 1, 1]))
    s_far = proximity(np.array([8, 8, 8]))
    e_dig_near = q_forward(net, s_near, None, "digital", params)[1]
    e_dig_far = q_forward(net, s_far, None, "digital", params)[1]
    assert e_dig_near == e_dig_far
    e_tdms_near = q_forward(net, s_near, None, "tdms", params)[1]
    e_tdms_far = q_forward(net, s_far, None, "tdms", params)[1]
    assert e_tdms_near != e_tdms_far


# ---------------------------------------------------------------------------
# bellman / action selection


def test_bellman_examples():
    assert bellman_target(1.0, 99.0, 0.9, True) == 1.0
    assert bellman_target(1.0, 2.0, 0.9, False) == pytest.approx(2.8)
    assert bellman_target(0.0, 0.0, 0.9, False) == 0.0
    with pytest.raises(ValueError):
        bellman_target(0.0, 0.0, 1.0, False)


def test_select_action_greedy_and_ties():
    a, _ = select_action(np.array([0.0, 3.0, 1.0, 2.0]), 0.0, Lfsr(1))
    assert a == 1
    a, _ = select_action(np.array([5.0, 5.0, 0.0, 0.0]), 0.0, Lfsr(1))
    assert a == 0


def test_select_action_uniform_frequencies():
    lfsr = Lfsr(0xACE1)
    counts = np.zeros(4)
    for _ in range(10_000):
        a, lfsr = select_action(np.zeros(4), 1.0, lfsr)
        counts[a] += 1
    freqs = counts / 10_000
    assert np.all(freqs >= 0.22) and np.all(freqs <= 0.28)


# ---------------------------------------------------------------------------
# training updates


def _batch(s, a, r, s_next, terminal):
    """A train_step batch from depth rows, which enter as proximity / DEPTH_MAX."""
    def inputs(depths):
        return proximity(np.array(depths, dtype=np.int64).reshape(-1, 3)) / qnav.DEPTH_MAX

    return (inputs(s), np.array(a, dtype=np.int64), np.array(r, dtype=float),
            inputs(s_next), np.array(terminal, dtype=bool))


def test_train_step_zero_residual_batch_is_noop():
    net = QNetwork(w1=np.zeros((16, 3)), w2=np.zeros((4, 16)))
    batch = _batch([[3, 3, 3]], [0], [0.0], [[3, 3, 3]], [True])
    out = train_step(net, batch, TrainConfig())
    assert np.array_equal(out.w1, net.w1) and np.array_equal(out.w2, net.w2)


def test_train_step_empty_batch_rejected():
    net, _ = init_network(Lfsr(3))
    with pytest.raises(ValueError):
        train_step(net, _batch([], [], [], [], []), TrainConfig())


@pytest.mark.parametrize("a, r", [(-1, 0.0), (4, 0.0), (0, float("nan"))])
def test_train_step_rejects_bad_batch(a, r):
    # a negative action would otherwise index the last action's row
    net, _ = init_network(Lfsr(3))
    with pytest.raises(ValueError):
        train_step(net, _batch([[3, 4, 5]], [a], [r], [[3, 4, 5]], [False]), TrainConfig())


def test_train_step_matches_finite_difference():
    # scalar 1-1-1 net against a frozen terminal target, embedded in a 3-1-4
    # net: the other two rays read depth 8 (proximity 0) through zero weights
    # and the other three actions' outputs are zero
    cfg = TrainConfig(alpha=1.0, gamma=0.9)
    w1 = np.array([[0.4, 0.0, 0.0]])
    w2 = np.array([[0.7], [0.0], [0.0], [0.0]])
    x = proximity(np.array([[3, 8, 8], [5, 8, 8]])) / qnav.DEPTH_MAX
    batch = (x[:1], np.array([0]), np.array([0.5]), x[1:], np.array([True]))

    def loss(w1v, w2v):
        h = min(max(w1v * x[0, 0], 0.0) * qnav.ACT_GAIN, 1.0)
        q = w2v * h
        return 0.5 * (batch[2][0] - q) ** 2

    eps = 1e-6
    g1 = (loss(0.4 + eps, 0.7) - loss(0.4 - eps, 0.7)) / (2 * eps)
    g2 = (loss(0.4, 0.7 + eps) - loss(0.4, 0.7 - eps)) / (2 * eps)

    out = train_step(QNetwork(w1=w1, w2=w2), batch, cfg)
    assert out.w1[0, 0] - w1[0, 0] == pytest.approx(-g1, rel=1e-5)
    assert out.w2[0, 0] - w2[0, 0] == pytest.approx(-g2, rel=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.0)
    with pytest.raises(ValueError):
        TrainConfig(capacity=4, batch_size=8)


@pytest.mark.parametrize("field, value", [
    ("episodes", 0), ("max_steps", 0), ("batch_size", 0), ("convergence_window", 0),
    ("convergence_frac", 0.0), ("convergence_frac", 1.01), ("convergence_frac", float("nan")),
    ("drop_p", -0.1), ("drop_p", 1.0),
    ("eps_start", -0.01), ("eps_start", 1.5), ("eps_end", -0.01), ("eps_end", 1.5),
    ("eps_decay", 0.0), ("eps_decay", 1.01),
])
def test_config_rejects_out_of_range_fields(field, value):
    # a window of 0 would train to the episode budget and never converge
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


COUNT_FIELDS = ("episodes", "max_steps", "batch_size", "capacity", "convergence_window")


@pytest.mark.parametrize("field", COUNT_FIELDS)
@pytest.mark.parametrize("value", [1.5, 8.0, True])
def test_config_rejects_non_integer_counts(field, value):
    # a float count would fail only inside run_training (range, array sizes)
    with pytest.raises(TypeError, match=field):
        TrainConfig(**{field: value})


def test_config_accepts_numpy_integer_counts():
    values = dict(episodes=2, max_steps=20, batch_size=4, capacity=16, convergence_window=2)
    cfg = TrainConfig(**{k: np.int64(v) for k, v in values.items()})
    a = run_training(SMALL_ARENA, cfg, seed=0x0BAD)
    b = run_training(SMALL_ARENA, TrainConfig(**values), seed=0x0BAD)
    assert np.array_equal(a.covered_cells, b.covered_cells)
    assert np.array_equal(a.energy_pj, b.energy_pj)


def test_config_accepts_boundary_values():
    TrainConfig(episodes=1, max_steps=1, batch_size=1, convergence_window=1,
                convergence_frac=1.0, drop_p=0.0, eps_start=1.0, eps_end=0.0, eps_decay=1.0)


REAL_FIELDS = ("alpha", "gamma", "eps_start", "eps_end", "eps_decay", "drop_p",
               "convergence_frac")


@pytest.mark.parametrize("field", REAL_FIELDS)
@pytest.mark.parametrize("value", [True, False, np.bool_(True)])
def test_config_rejects_bool_reals(field, value):
    # a bool passes the range checks as 0 or 1: TrainConfig(alpha=True).alpha
    # was True
    with pytest.raises(TypeError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["stochastic"])
@pytest.mark.parametrize("value", [2, 0, 1.0, "yes", None])
def test_config_rejects_non_bool_flags(field, value):
    # a training step sizes its LFSR block from `stochastic`
    with pytest.raises(TypeError, match=field):
        TrainConfig(**{field: value})


def test_config_accepts_numpy_bool_flags():
    flags = dict(episodes=1, max_steps=20, stochastic=False)
    a = run_training(SMALL_ARENA, TrainConfig(**{k: np.bool_(v) if isinstance(v, bool) else v
                                                 for k, v in flags.items()}), seed=0x0BAD)
    b = run_training(SMALL_ARENA, TrainConfig(**flags), seed=0x0BAD)
    assert list(a.rows()) == list(b.rows())


def test_scratchpad_evicts_oldest():
    pad = Scratchpad(3)
    for i in range(5):
        pad.push(np.full(3, i), 0, 0.0, np.full(3, i), False)
    assert len(pad) == 3
    # draw value i picks the i-th oldest row, so draws 0, 1, 2 list them oldest first
    s, *_ = pad.sample(np.arange(3))
    stored = [int(v) for v in s[:, 0]]
    assert stored == [2, 3, 4]


def test_scratchpad_sampling_deterministic():
    pad = Scratchpad(8)
    for i in range(8):
        pad.push(np.full(3, i), 0, 0.0, np.full(3, i), False)
    b1 = pad.sample(Lfsr(0xACE1).words(4))
    b2 = pad.sample(Lfsr(0xACE1).words(4))
    assert [int(v) for v in b1[0][:, 0]] == [int(v) for v in b2[0][:, 0]]


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 16), pushes=st.integers(0, 50), n=st.integers(1, 8),
       seed=st.integers(1, 0xFFFF))
def test_scratchpad_matches_deque_oracle(capacity, pushes, n, seed):
    # oracle: the deque(maxlen=capacity) store the ring replaced, indexed by
    # the same randints draw
    pad = Scratchpad(capacity)
    buf = deque(maxlen=capacity)
    for k in range(pushes):
        row = (np.array([k, k + 1, k + 2]) / 63, k % 4, k * 0.5 - 3.0,
               np.array([k + 3, k + 4, k + 5]) / 63, k % 3 == 0)
        pad.push(*row)
        buf.append(row)
    assert len(pad) == len(buf)
    draws = Lfsr(seed).words(n)
    if not buf:
        with pytest.raises(ValueError):
            pad.sample(draws)
        return
    idx, after = Lfsr(seed).randints(n, len(buf))
    batch = pad.sample(draws)
    # the caller steps past the draws it passed, which is where randints stops
    assert Lfsr(seed).advance(len(draws)) == after
    for field_i, got in enumerate(batch):
        want = np.array([buf[i][field_i] for i in idx])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# training runs


@pytest.fixture(scope="module")
def small_run():
    cfg = TrainConfig(episodes=30, max_steps=150)
    return run_training(SMALL_ARENA, cfg, seed=0xACE1)


def test_obstacle_free_4x4_converges():
    tiny = Arena.from_text("####\n#.S#\n#..#\n####")
    tr = run_training(tiny, TrainConfig(episodes=60, max_steps=100), seed=0xACE1)
    assert tr.converged


def test_coverage_non_decreasing_within_episode(small_run):
    for ep in np.unique(small_run.episode):
        cov = small_run.covered_cells[small_run.episode == ep]
        assert np.all(np.diff(cov) >= 0)


def test_trace_deterministic():
    cfg = TrainConfig(episodes=5, max_steps=80)
    a = run_training(SMALL_ARENA, cfg, seed=0x0BAD)
    b = run_training(SMALL_ARENA, cfg, seed=0x0BAD)
    assert np.array_equal(a.covered_cells, b.covered_cells)
    assert np.array_equal(a.reward, b.reward)
    assert np.array_equal(a.energy_pj, b.energy_pj)
    assert np.array_equal(a.net.w1, b.net.w1)


def test_trace_rows_schema(small_run):
    row = next(small_run.rows())
    assert len(row) == 5
    assert isinstance(row[0], int) and isinstance(row[3], float)


def test_input_table_matches_sensing():
    operands, scaled, _, _ = qnav._pose_tables(SMALL_ARENA, 4)
    assert qnav._pose_tables(SMALL_ARENA, 4)[0] is operands
    for x in range(1, 5):
        for y in range(1, 5):
            for h in range(qnav.N_HEADINGS):
                pose = qnav._flat_pose(SMALL_ARENA, (x, y), h)
                want = proximity(sense(SMALL_ARENA, RobotState((x, y), h)), 4)
                assert np.array_equal(operands[pose], want)
                assert np.array_equal(scaled[pose], want.astype(float) / qnav.DEPTH_MAX)
    for table in (operands, scaled):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_run_policy_deterministic(small_run):
    c1 = run_policy(SMALL_ARENA, small_run.net, 0.1, 100, seed=7, stochastic=True)
    c2 = run_policy(SMALL_ARENA, small_run.net, 0.1, 100, seed=7, stochastic=True)
    assert c1 == c2
    assert 1 <= c1 <= SMALL_ARENA.free_cells


@pytest.mark.parametrize("steps, error", [(-1, ValueError), (2.5, TypeError),
                                          (3.0, TypeError), (True, TypeError)])
def test_run_policy_rejects_bad_step_counts(small_run, steps, error):
    with pytest.raises(error, match="steps"):
        run_policy(SMALL_ARENA, small_run.net, 0.1, steps, seed=7)


@pytest.mark.parametrize("eps, drop_p, match", [
    (2.0, 0.25, "exploration rate"), (-0.1, 0.25, "exploration rate"),
    (float("nan"), 0.25, "exploration rate"), (0.1, 1.0, "drop probability"),
    (0.1, -0.1, "drop probability"), (0.1, float("nan"), "drop probability"),
])
def test_run_policy_rejects_bad_rates(small_run, eps, drop_p, match):
    # both are checked before the loop, so a run of 0 steps or without masks
    # rejects them too
    with pytest.raises(ValueError, match=match):
        run_policy(SMALL_ARENA, small_run.net, eps, 0, seed=7, drop_p=drop_p)


@pytest.mark.parametrize("kwargs, match", [
    (dict(eps=True), "eps"), (dict(eps=np.bool_(False)), "eps"),
    (dict(drop_p=False), "drop_p"), (dict(stochastic=2), "stochastic"),
    (dict(stochastic="yes"), "stochastic"), (dict(stochastic=1.0), "stochastic"),
    (dict(stochastic=None), "stochastic"),
])
def test_run_policy_rejects_bools_and_non_bools(small_run, kwargs, match):
    # TrainConfig's rules: eps=True ran as 1.0, and stochastic=2 or "yes" ran
    # with the masks on
    with pytest.raises(TypeError, match=match):
        run_policy(SMALL_ARENA, small_run.net, **(dict(eps=0.1, steps=5, seed=7) | kwargs))


def test_run_policy_step_counts(small_run):
    assert run_policy(SMALL_ARENA, small_run.net, 0.1, 0, seed=7) == 1  # the start cell
    assert (run_policy(SMALL_ARENA, small_run.net, 0.1, np.int64(100), seed=7)
            == run_policy(SMALL_ARENA, small_run.net, 0.1, 100, seed=7))


# sha256 of TrainingTrace.rows(), episode_coverage and convergence_episode on
# the default arena at seed 0xACE1 (the hash bench/workloads.digest_training
# uses), captured while default_params() still ran the calibration fit
TRAINING_GOLDEN = {
    (None, "tdms"): "d716c40072ed1311193afe62fdcbc19622f83d2a1e14cd1d208956cb0316dc7a",
    (2, "tdms"): "809ffce80a9e1bbc7ae34eb98926ea16d6bdc915d4af2d6a18c254d8dad6ade4",
    (2, "hdms"): "8894857c2fe282f135a5bd875a0584a926598e1201d9a521074ab7774d29c2ea",
    (2, "digital"): "e6d22ebcd1b0d632d40776fd6304d75d25a60690dee4605a39c515c12e38f2bd",
}


def _training_text(trace):
    rows = repr(list(trace.rows()))
    coverage = repr([int(c) for c in trace.episode_coverage])
    return f"{rows}|{coverage}|{int(trace.convergence_episode)}".encode()


def _training_digest(trace):
    return hashlib.sha256(_training_text(trace)).hexdigest()


@pytest.mark.parametrize("episodes, model", list(TRAINING_GOLDEN), ids=str)
def test_training_golden_digest(episodes, model):
    cfg = TrainConfig() if episodes is None else TrainConfig(episodes=episodes)
    trace = run_training(default_arena(), cfg, 0xACE1, model)
    assert _training_digest(trace) == TRAINING_GOLDEN[episodes, model]


# sha256 of trace.net.w1.tobytes() + trace.net.w2.tobytes() after 2 tdms
# episodes on the default arena at seed 0xACE1, captured before the replay
# buffer and drop masks became plain arrays. With a window of 2 the returned
# net is the one at the end of the only full window, the last one.
WEIGHTS_GOLDEN = "796959806bafb27074e48795e6b3e9fd256c67893b8a38e83c4d064b65553d1b"


def test_training_final_weights_golden():
    trace = run_training(default_arena(), TrainConfig(episodes=2, convergence_window=2),
                         0xACE1, "tdms")
    init, _ = init_network(Lfsr(0xACE1), horizon=qnav.arena_horizon(default_arena()))
    assert not np.array_equal(trace.net.w1, init.w1)
    digest = hashlib.sha256(trace.net.w1.tobytes() + trace.net.w2.tobytes()).hexdigest()
    assert digest == WEIGHTS_GOLDEN


def test_training_returns_last_net_before_full_window():
    # 2 episodes never fill the default window of 10: the net after the last
    # update comes back, as in the window-2 run above
    trace = run_training(default_arena(), TrainConfig(episodes=2), 0xACE1, "tdms")
    digest = hashlib.sha256(trace.net.w1.tobytes() + trace.net.w2.tobytes()).hexdigest()
    assert digest == WEIGHTS_GOLDEN


def test_training_net_is_strongest_window_snapshot():
    # with a window of 2 the strongest window ends at episode 1, so trace.net
    # is a copy of the weights there, which later updates must not reach
    arena = default_arena()
    trace = run_training(arena, TrainConfig(episodes=6, convergence_window=2), 1, "tdms")
    assert trace.episode_coverage.tolist() == [44, 28, 20, 41, 18, 32]
    at_window = run_training(arena, TrainConfig(episodes=2, convergence_window=2), 1, "tdms").net
    # the default window of 10 never fills in 6 episodes: the last network
    last = run_training(arena, TrainConfig(episodes=6), 1, "tdms").net
    for layer in ("w1", "w2"):
        assert getattr(trace.net, layer).tobytes() == getattr(at_window, layer).tobytes()
        assert not np.array_equal(getattr(trace.net, layer), getattr(last, layer))


# cells covered by run_policy(stochastic=True) from the small_run net on
# SMALL_ARENA, eps 0.1, 100 steps, seeds 1-8, captured before the forward
# pass took proximity operands; a policy that ignored its drop masks covers
# [2, 4, 5, 2, 4, 1, 4, 2], the clean policy [1, 1, 1, 2, 6, 1, 1, 4]
STOCHASTIC_POLICY_GOLDEN = [2, 3, 5, 4, 4, 7, 5, 2]


def test_run_policy_stochastic_golden(small_run):
    covered = [run_policy(SMALL_ARENA, small_run.net, 0.1, 100, seed, stochastic=True)
               for seed in range(1, 9)]
    assert covered == STOCHASTIC_POLICY_GOLDEN


# a 10x10 arena, whose conditioning horizon (10 - 2 = 8) comes from its size
# rather than from the PROX_HORIZON cap alone
ARENA_10 = Arena.from_text(
    """\
##########
#........#
#........#
#..##....#
#..##....#
#.....#..#
#.....#..#
#........#
#S.......#
##########
"""
)
# _training_digest of 3 episodes of the default config at 0xACE1 under tdms,
# captured before the forward pass took proximity operands
ARENA_10_GOLDEN = "ad32fa07e21d9c073e9607c8fc4508bcfe0091aea7db8e70dccb1b14c25ea827"


def test_training_golden_small_arena():
    assert qnav.arena_horizon(ARENA_10) == 8
    trace = run_training(ARENA_10, TrainConfig(episodes=3), 0xACE1, "tdms")
    assert _training_digest(trace) == ARENA_10_GOLDEN


# sha256 of _training_text followed by the bytes of trace.net.w1 and
# trace.net.w2, on the default arena at 0xACE1 under tdms, captured before a
# training step read its LFSR draws as one block. Without masks a step's block
# holds no mask words; at epsilon 1 every step draws the random-action word.
STEP_SHAPE_GOLDEN = {
    "no-masks": (dict(episodes=3, stochastic=False),
                 "87a18f6f9425f4fce903d9fb31f7e80d6a9ce675730ce2fe2aba48ec94649799"),
    "always-explore": (dict(episodes=2, eps_start=1.0, eps_end=1.0),
                       "38090ee6d2eab0c276e7b5f7a24e93d2133366b859001ada81a5709ee4cfbc87"),
}


@pytest.mark.parametrize("case", list(STEP_SHAPE_GOLDEN))
def test_training_step_shape_golden(case):
    fields, golden = STEP_SHAPE_GOLDEN[case]
    trace = run_training(default_arena(), TrainConfig(**fields), 0xACE1, "tdms")
    digest = hashlib.sha256(_training_text(trace) + trace.net.w1.tobytes()
                            + trace.net.w2.tobytes()).hexdigest()
    assert digest == golden


# ---------------------------------------------------------------------------
# pose table and the one-block training step


def _check_pose_table(arena):
    """The pose tables against apply_action and sensing, at every free pose
    and action."""
    operands, _, next_pose, collided = qnav._pose_tables(arena, 4)
    assert qnav._pose_tables(arena, 4)[2] is next_pose
    for x in range(arena.width):
        for y in range(arena.height):
            if not arena.is_free((x, y)):
                continue
            for h in range(qnav.N_HEADINGS):
                pose = qnav._flat_pose(arena, (x, y), h)
                assert pose // qnav.N_HEADINGS == x * arena.height + y
                assert np.array_equal(operands[pose],
                                      proximity(sense(arena, RobotState((x, y), h)), 4))
                for action in range(qnav.N_ACTIONS):
                    new, hit = apply_action(arena, RobotState((x, y), h), action)
                    assert next_pose[pose, action] == qnav._flat_pose(arena, new.position,
                                                                      new.heading)
                    assert collided[pose, action] == hit
    for table in qnav._pose_tables(arena, 4):
        with pytest.raises(ValueError):
            table[0, 0] = 0


@pytest.mark.parametrize("arena", [default_arena(), ARENA_10, SMALL_ARENA], ids=str)
def test_pose_table_matches_apply_action(arena):
    _check_pose_table(arena)


@st.composite
def _arenas(draw):
    width, height = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    boundary = {(x, y) for x in range(width) for y in range(height)
                if x in (0, width - 1) or y in (0, height - 1)}
    interior = sorted({(x, y) for x in range(width) for y in range(height)} - boundary)
    blocked = draw(st.sets(st.sampled_from(interior), max_size=len(interior) - 1))
    start = draw(st.sampled_from(sorted(set(interior) - blocked)))
    return Arena(width, height, frozenset(boundary | blocked), start)


@settings(max_examples=40, deadline=None)
@given(arena=_arenas())
def test_pose_table_matches_apply_action_on_drawn_arenas(arena):
    _check_pose_table(arena)


TINY_ARENA = Arena.from_text("####\n#.S#\n#..#\n####")
# the words init_network draws before the first training step
_INIT_WORDS = 16 * 3 + qnav.N_ACTIONS * 16


def _per_call_training(arena, cfg, seed, ends):
    """run_training's steps with one call per draw: drop_mask, select_action
    and a scratchpad sample that steps past its own words, moving the robot
    by apply_action. No convergence check: the runs here end before a full
    window. Appends the LFSR after each step to ``ends``."""
    params = default_params()
    lfsr = Lfsr(seed)
    net, lfsr = init_network(lfsr, horizon=qnav.arena_horizon(arena))
    pad = Scratchpad(cfg.capacity)
    rows, coverage = [], []
    for ep in range(cfg.episodes):
        state = RobotState(arena.start, 0)
        visited = {state.position}
        for _ in range(cfg.max_steps):
            x = proximity(sense(arena, state), net.horizon)
            keep = None
            if cfg.stochastic:
                keep, lfsr = drop_mask(net.w1.shape, cfg.drop_p, lfsr)
            qvals, energy = q_forward(net, x, keep, "tdms", params)
            action, lfsr = select_action(qvals, cfg.epsilon(ep), lfsr)
            new_state, collided = apply_action(arena, state, action)
            reward = 0.0
            if collided:
                reward = qnav.COLLISION_REWARD
            elif new_state.position not in visited:
                visited.add(new_state.position)
                reward = qnav.NEW_CELL_REWARD
            terminal = len(visited) == arena.free_cells
            x_next = proximity(sense(arena, new_state), net.horizon)
            pad.push(x / qnav.DEPTH_MAX, action, reward, x_next / qnav.DEPTH_MAX, terminal)
            if len(pad) >= cfg.batch_size:
                batch = pad.sample(lfsr.words(cfg.batch_size))
                lfsr = lfsr.advance(cfg.batch_size)
                keep = None
                if cfg.stochastic:
                    keep, lfsr = drop_mask(net.w1.shape, cfg.drop_p, lfsr)
                net = qnav.train_step(net, batch, cfg, keep)
            ends.append(lfsr)
            rows.append((len(visited), reward, energy))
            state = new_state
            if terminal:
                break
        coverage.append(len(visited))
    return rows, coverage, net


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    return a.dtype == b.dtype and np.array_equal(a, b)


def _stream_slot_index(slot):
    """The cycle index whose words start at stream slot ``slot``."""
    return slot * BITS_PER_SAMPLE % LFSR_PERIOD


@settings(max_examples=60, deadline=None)
@example(index=LFSR_PERIOD - 1, eps=1.0, stochastic=True, batch_size=2, steps=6, arena=0)
@example(index=_stream_slot_index(LFSR_PERIOD - 30), eps=0.0, stochastic=True, batch_size=1,
         steps=8, arena=1)
@example(index=12345, eps=1.0, stochastic=False, batch_size=6, steps=4, arena=0)
@given(index=st.one_of(st.integers(0, LFSR_PERIOD - 1),
                       st.integers(LFSR_PERIOD - 2000, LFSR_PERIOD - 1)),
       eps=st.sampled_from([0.0, 1.0, 0.4]), stochastic=st.booleans(),
       batch_size=st.integers(1, 6), steps=st.integers(1, 12), arena=st.sampled_from([0, 1]))
def test_block_step_matches_per_call_draws(index, eps, stochastic, batch_size, steps, arena):
    # one block read and one advance(used) per step give the same action
    # masks, actions, replay rows, update masks and LFSR states as drawing
    # each of them with its own call; the first step starts at cycle index
    # `index` (near the cycle's end, a step's words and advance wrap)
    arena = (TINY_ARENA, SMALL_ARENA)[arena]
    seed = int(_cycle_tables()[0][(index - BITS_PER_SAMPLE * _INIT_WORDS) % LFSR_PERIOD])
    cfg = TrainConfig(episodes=2, max_steps=steps, batch_size=batch_size, capacity=batch_size + 3,
                      stochastic=stochastic, eps_start=eps, eps_end=eps)
    # the spies sit on the private forward and update, which run_training
    # calls directly and q_forward and train_step wrap
    forward, update, advance = qnav._forward, qnav._update, Lfsr.advance

    def run(per_call):
        log, ends = [], []
        with pytest.MonkeyPatch.context() as mp:
            def spy_forward(quant, x, keep, price):
                log.append(("act", keep))
                return forward(quant, x, keep, price)

            def spy_update(w, layers, batch, cfg, keep):
                log.append(("update", batch, keep))
                return update(w, layers, batch, cfg, keep)

            mp.setattr(qnav, "_forward", spy_forward)
            mp.setattr(qnav, "_update", spy_update)
            if per_call:
                return log, ends, _per_call_training(arena, cfg, seed, ends)

            def spy_advance(lfsr, count):
                ends.append(advance(lfsr, count))
                return ends[-1]

            mp.setattr(Lfsr, "advance", spy_advance)
            trace = run_training(arena, cfg, seed, "tdms")
            return log, ends[1:], trace  # ends[0] is init_network's draw

    log, ends, trace = run(per_call=False)
    want_log, want_ends, (rows, coverage, net) = run(per_call=True)
    assert len(log) == len(want_log)
    for got, want in zip(log, want_log):
        assert got[0] == want[0] and all(_same(u, v) for u, v in zip(got[1:], want[1:]))
    assert ends == want_ends
    assert [row[2:] for row in trace.rows()] == rows
    assert trace.episode_coverage.tolist() == coverage
    assert np.array_equal(trace.net.w1, net.w1) and np.array_equal(trace.net.w2, net.w2)

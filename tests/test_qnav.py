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
from edgesim.stochsyn import (_STREAM_PAD, BITS_PER_SAMPLE, LFSR_PERIOD, Lfsr, _cycle_tables,
                              drop_mask, stream_table)


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


@pytest.mark.parametrize("width, height, field", [(2, 4, "width"), (-1, 4, "width"),
                                                  (4, 0, "height"), (4, 2, "height")])
def test_arena_rejects_sizes_below_three(width, height, field):
    # a side of fewer than 3 cells leaves no free cell inside the walls; the
    # error named only the start or a boundary cell
    with pytest.raises(ValueError, match=field):
        Arena(width, height, WALLS_4X4, (1, 1))


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


@pytest.mark.parametrize("layer", ["w1", "w2"])
@pytest.mark.parametrize("dtype", [object, bool, complex])
def test_qnetwork_rejects_non_real_layers(layer, dtype):
    # an object w1 constructed and failed inside np.isfinite, naming
    # nothing, and a bool w1 ran as 0/1 weights
    w = {"w1": np.zeros((16, 3)), "w2": np.zeros((4, 16))}
    w[layer] = w[layer].astype(dtype)
    with pytest.raises(TypeError, match=f"{layer} must hold real numbers"):
        QNetwork(**w)


@pytest.mark.parametrize("layer", ["w1", "w2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qnetwork_rejects_non_finite_weights_naming_the_layer(layer, bad):
    # a NaN weight constructed and failed only in the first forward pass,
    # as "network weights must be finite", naming neither layer
    w = {"w1": np.zeros((16, 3)), "w2": np.zeros((4, 16))}
    w[layer][1, 2] = bad
    with pytest.raises(ValueError, match=f"{layer} must be finite"):
        QNetwork(**w)


def test_qnetwork_weights_outside_the_unit_range_run_saturated(params):
    # a weight beyond [-1, 1] runs at full scale, and a training step clips
    # it back into [-1, 1]
    big = QNetwork(w1=np.full((16, 3), 5.0), w2=np.full((4, 16), -3.0))
    unit = QNetwork(w1=np.ones((16, 3)), w2=-np.ones((4, 16)))
    for got, want in zip(big.quantized(), unit.quantized()):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    x = proximity(np.array([2, 3, 4]))
    (q_big, e_big), (q_unit, e_unit) = (q_forward(n, x, None, "tdms", params) for n in (big, unit))
    assert np.array_equal(q_big, q_unit) and e_big == e_unit
    batch = (np.full((1, 3), 0.5), np.array([0]), np.array([0.0]), np.zeros((1, 3)),
             np.array([True]))
    out = train_step(big, batch, TrainConfig())
    assert np.abs(out.w1).max() == 1.0 and np.abs(out.w2).max() == 1.0


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


def test_activation_table_matches_the_rectify_shift_saturate_rule():
    # every first-layer accumulator a 3-input layer of 6-bit magnitudes can
    # reach, negative ones read from the table's end
    bound = 3 * qnav.DEPTH_MAX * qnav.DEPTH_MAX
    acc = np.arange(-bound, bound + 1)
    want = np.minimum(np.maximum(acc, 0) >> qnav.ACT_SHIFT, qnav.DEPTH_MAX)
    assert np.array_equal(qnav._ACTIVATION[acc], want)
    assert not qnav._ACTIVATION.flags.writeable


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


@pytest.mark.parametrize("a, r, text", [([], [], "non-empty"), ([-1], [0.0], "action"),
                                        ([4], [0.0], "action"), ([0], [float("nan")], "rewards"),
                                        ([0], [float("inf")], "rewards")])
def test_train_step_names_what_is_wrong_with_a_batch(a, r, text):
    # train_step checks the batches that enter from outside; without its own
    # check a NaN reward reached the weights, and the error named w1
    net, _ = init_network(Lfsr(3))
    rows = [[3, 4, 5]] * len(a)
    with pytest.raises(ValueError, match=text):
        train_step(net, _batch(rows, a, r, rows, [False] * len(a)), TrainConfig())


@pytest.mark.parametrize("actions", [np.array([1.0]), np.array([True]), np.array([0.0, 2.0]),
                                     np.array(["1"]), np.array([1], dtype=object)], ids=repr)
def test_train_step_rejects_non_integer_actions(actions):
    # a float or bool action passed the range check as 1.0 or True and then
    # failed inside numpy with IndexError, naming nothing
    net, _ = init_network(Lfsr(3))
    n = len(actions)
    s, _, r, s_next, terminal = _batch([[3, 4, 5]] * n, [0] * n, [0.0] * n, [[3, 4, 5]] * n,
                                       [False] * n)
    with pytest.raises(TypeError, match="actions must be integers"):
        train_step(net, (s, actions, r, s_next, terminal), TrainConfig())


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


@pytest.mark.parametrize("field", REAL_FIELDS)
@pytest.mark.parametrize("value", ["0.1", None])
def test_config_rejects_non_number_reals(field, value):
    # TrainConfig(alpha="0.1") failed comparing a str with an int, naming no field
    with pytest.raises(TypeError, match=field):
        TrainConfig(**{field: value})


def test_config_names_both_fields_of_a_short_scratchpad():
    with pytest.raises(ValueError, match="capacity must be >= batch_size"):
        TrainConfig(capacity=4, batch_size=8)


@pytest.mark.parametrize("capacity, error", [(True, TypeError), (2.5, TypeError),
                                             (np.float64(4.0), TypeError), (0, ValueError),
                                             (-1, ValueError)])
def test_scratchpad_rejects_bad_capacity(capacity, error):
    # Scratchpad(True) and Scratchpad(2.5) failed inside numpy
    with pytest.raises(error, match="capacity"):
        Scratchpad(capacity)
    assert Scratchpad(np.int64(2)).capacity == 2


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


@pytest.mark.parametrize("kwargs, match", [
    (dict(eps="0.1"), "eps"), (dict(eps=None), "eps"), (dict(drop_p="0.25"), "drop_p"),
    (dict(drop_p=None), "drop_p"),
])
def test_run_policy_rejects_non_numbers(small_run, kwargs, match):
    # eps="0.1" failed comparing a str with an int, naming no field
    with pytest.raises(TypeError, match=match):
        run_policy(SMALL_ARENA, small_run.net, **(dict(eps=0.1, steps=5, seed=7) | kwargs))


@pytest.mark.parametrize("kwargs, error, match", [
    (dict(model="analog"), ValueError, "MAC model"), (dict(params={}), TypeError, "params"),
])
def test_run_policy_checks_model_and_params(small_run, kwargs, error, match):
    # a policy run prices nothing, but rejects what q_forward would reject,
    # even when it runs no step
    for steps in (0, 3):
        with pytest.raises(error, match=match):
            run_policy(SMALL_ARENA, small_run.net, 0.1, steps, seed=7, **kwargs)


@pytest.mark.parametrize("seed, error", [(0, ValueError), (0x10000, ValueError),
                                         (True, TypeError), (2.0, TypeError)])
def test_runs_name_a_bad_seed(small_run, seed, error):
    # the seed went to Lfsr unchecked: run_training(arena, cfg, 0) raised
    # "LFSR state must be a nonzero 16-bit value", naming no seed
    with pytest.raises(error, match="seed"):
        run_training(SMALL_ARENA, TrainConfig(episodes=1, max_steps=2), seed)
    with pytest.raises(error, match="seed"):
        run_policy(SMALL_ARENA, small_run.net, 0.1, 3, seed)


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


def _per_call_training(arena, cfg, seed, starts):
    """run_training's steps with one call per draw: drop_mask, select_action
    and a scratchpad sample that steps past its own words, moving the robot
    by apply_action. No convergence check: the runs here end before a full
    window. Appends the stream cursor at the start of each step to ``starts``."""
    params = default_params()
    lfsr = Lfsr(seed)
    net, lfsr = init_network(lfsr, horizon=qnav.arena_horizon(arena))
    pad = Scratchpad(cfg.capacity)
    rows, coverage = [], []
    for ep in range(cfg.episodes):
        state = RobotState(arena.start, 0)
        visited = {state.position}
        for _ in range(cfg.max_steps):
            starts.append(lfsr.slot)
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


def _check_block_steps(arena, cfg, seed):
    """run_training against _per_call_training from ``seed``: the same action
    masks, actions, replay rows, update masks and per-step stream cursors,
    and the same trace rows, coverage and final network. Returns the cursors."""
    # the spies sit on the private integer forward and update, which
    # run_training calls directly and q_forward and train_step wrap, and on
    # the block read of the stream table, whose slot is the step's cursor
    forward, update, block_read = qnav._forward, qnav._update, qnav.stream_block

    def run(per_call):
        log, starts = [], []
        with pytest.MonkeyPatch.context() as mp:
            def spy_forward(quant, x, keep):
                log.append(("act", keep))
                return forward(quant, x, keep)

            def spy_update(w, layers, batch, cfg, keep):
                log.append(("update", batch, keep))
                return update(w, layers, batch, cfg, keep)

            mp.setattr(qnav, "_forward", spy_forward)
            mp.setattr(qnav, "_update", spy_update)
            if per_call:
                return log, starts, _per_call_training(arena, cfg, seed, starts)

            def spy_block(table, slot, count):
                if table is stream_table():
                    starts.append(slot)
                return block_read(table, slot, count)

            mp.setattr(qnav, "stream_block", spy_block)
            return log, starts, run_training(arena, cfg, seed, "tdms")

    log, starts, trace = run(per_call=False)
    want_log, want_starts, (rows, coverage, net) = run(per_call=True)
    assert len(log) == len(want_log)
    for got, want in zip(log, want_log):
        assert got[0] == want[0] and all(_same(u, v) for u, v in zip(got[1:], want[1:]))
    assert starts == want_starts
    assert [row[2:] for row in trace.rows()] == rows
    assert trace.episode_coverage.tolist() == coverage
    assert np.array_equal(trace.net.w1, net.w1) and np.array_equal(trace.net.w2, net.w2)
    return starts


def _seed_at(index):
    """The seed whose first training step starts at cycle index ``index``."""
    return int(_cycle_tables()[0][(index - BITS_PER_SAMPLE * _INIT_WORDS) % LFSR_PERIOD])


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
    # one block read per step and a cursor moved past the words it used give
    # the same draws and LFSR positions as drawing each with its own call;
    # the first step starts at cycle index `index` (near the cycle's end, a
    # step's block and cursor wrap)
    cfg = TrainConfig(episodes=2, max_steps=steps, batch_size=batch_size, capacity=batch_size + 3,
                      stochastic=stochastic, eps_start=eps, eps_end=eps)
    _check_block_steps((TINY_ARENA, SMALL_ARENA)[arena], cfg, _seed_at(index))


def test_training_memory_does_not_grow_with_max_steps():
    # every episode covers the tiny arena's 4 free cells long before its
    # max_steps: a run records at most _PRICE_ROWS steps for pricing, so a
    # huge max_steps allocates nothing per step it does not run
    cfg = TrainConfig(episodes=3, max_steps=10**12, batch_size=2, capacity=8,
                      eps_start=1.0, eps_end=1.0)
    starts = _check_block_steps(TINY_ARENA, cfg, 0xACE1)
    assert len(starts) < qnav._PRICE_ROWS  # the episodes ended early


# cell (4, 1) is free but walled in, so no episode covers every free cell and
# each runs its max_steps
WALLED_ARENA = Arena.from_text("######\n#S.#.#\n#..###\n######")


def test_block_step_wraps_past_the_stream_padding():
    # a batch of 4097 makes every step's block (2 masks, 2 epsilon words and
    # the batch) 99 words longer than the stream table's padding, so each
    # step that starts in the last 98 slots of the period reads its block by
    # the wrap gather. At epsilon 0 a step uses 49 words until the scratchpad
    # holds a batch, so the first training step, step 4096, starts 4096 * 49
    # slots after the first: here at slot LFSR_PERIOD - 60, where its replay
    # sample and update mask run past the table's end and wrap to its start.
    batch = 4097
    first = (LFSR_PERIOD - 60 - 4096 * 49) % LFSR_PERIOD
    cfg = TrainConfig(episodes=1, max_steps=batch + 2, batch_size=batch, capacity=batch,
                      eps_start=0.0, eps_end=0.0)
    block = 2 * 48 + 2 + batch
    assert block == _STREAM_PAD + 99
    starts = _check_block_steps(WALLED_ARENA, cfg, _seed_at(_stream_slot_index(first)))
    assert len(starts) == batch + 2 and starts[batch - 1] == LFSR_PERIOD - 60

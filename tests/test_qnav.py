import dataclasses
import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
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
from edgesim.stochsyn import Lfsr, drop_mask


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


def test_qnetwork_layers_cannot_change_under_its_cache(params):
    # the quantized view is cached per network, so neither a reassigned
    # layer nor a write into one may leave it stale
    net, _ = init_network(Lfsr(0xACE1))
    x = proximity(np.array([2, 3, 4]))
    q, _ = q_forward(net, x, None, "tdms", params)
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.w1 = np.zeros_like(net.w1)
    for layer in (net.w1, net.w2):
        with pytest.raises(ValueError, match="read-only"):
            layer[0, 0] = 0.0
    assert np.array_equal(q_forward(net, x, None, "tdms", params)[0], q)


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


@pytest.mark.parametrize("wide, message", [("input", "hidden-layer"), ("hidden", "output-layer")])
def test_q_forward_accumulator_overflow(params, wide, message):
    # 2,200 full-scale products of 63 * 63 sum to 8,731,800, past the 24-bit
    # ACC_MAX of 8,388,607; a 3-input first layer saturates its hidden units
    n = 2200
    shapes = {"input": ((16, n), (4, 16)), "hidden": ((n, 3), (4, n))}[wide]
    net = QNetwork(w1=np.ones(shapes[0]), w2=np.ones(shapes[1]))
    x = np.full(shapes[0][1], qnav.DEPTH_MAX)
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
    # scalar 1-1-1 net against a frozen terminal target
    cfg = TrainConfig(alpha=1.0, gamma=0.9)
    w1 = np.array([[0.4]])
    w2 = np.array([[0.7]])
    x = proximity(np.array([[3], [5]])) / qnav.DEPTH_MAX
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


class _CountingDraw:
    """Stands in for the LFSR: draw value i is i, so a sample lists the rows oldest first."""

    def randints(self, count, n):
        return np.arange(count) % n, self


def test_scratchpad_evicts_oldest():
    pad = Scratchpad(3)
    for i in range(5):
        pad.push(np.full(3, i), 0, 0.0, np.full(3, i), False)
    assert len(pad) == 3
    (s, *_), _ = pad.sample(3, _CountingDraw())
    stored = [int(v) for v in s[:, 0]]
    assert stored == [2, 3, 4]


def test_scratchpad_sampling_deterministic():
    pad = Scratchpad(8)
    for i in range(8):
        pad.push(np.full(3, i), 0, 0.0, np.full(3, i), False)
    b1, _ = pad.sample(4, Lfsr(0xACE1))
    b2, _ = pad.sample(4, Lfsr(0xACE1))
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
    if not buf:
        with pytest.raises(ValueError):
            pad.sample(n, Lfsr(seed))
        return
    idx, after = Lfsr(seed).randints(n, len(buf))
    batch, pad_after = pad.sample(n, Lfsr(seed))
    assert pad_after == after
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
    operands, scaled = qnav._input_table(SMALL_ARENA, 4)
    assert qnav._input_table(SMALL_ARENA, 4)[0] is operands
    for x in range(1, 5):
        for y in range(1, 5):
            for h in range(qnav.N_HEADINGS):
                want = proximity(sense(SMALL_ARENA, RobotState((x, y), h)), 4)
                assert np.array_equal(operands[x, y, h], want)
                assert np.array_equal(scaled[x, y, h], want.astype(float) / qnav.DEPTH_MAX)
    for table in (operands, scaled):
        with pytest.raises(ValueError):
            table[1, 1, 0, 0] = 0


def test_run_policy_deterministic(small_run):
    c1 = run_policy(SMALL_ARENA, small_run.net, 0.1, 100, seed=7, stochastic=True)
    c2 = run_policy(SMALL_ARENA, small_run.net, 0.1, 100, seed=7, stochastic=True)
    assert c1 == c2
    assert 1 <= c1 <= SMALL_ARENA.free_cells


# sha256 of TrainingTrace.rows(), episode_coverage and convergence_episode on
# the default arena at seed 0xACE1 (the hash bench/workloads.digest_training
# uses), captured while default_params() still ran the calibration fit
TRAINING_GOLDEN = {
    (None, "tdms"): "d716c40072ed1311193afe62fdcbc19622f83d2a1e14cd1d208956cb0316dc7a",
    (2, "tdms"): "809ffce80a9e1bbc7ae34eb98926ea16d6bdc915d4af2d6a18c254d8dad6ade4",
    (2, "hdms"): "8894857c2fe282f135a5bd875a0584a926598e1201d9a521074ab7774d29c2ea",
    (2, "digital"): "e6d22ebcd1b0d632d40776fd6304d75d25a60690dee4605a39c515c12e38f2bd",
}


def _training_digest(trace):
    rows = repr(list(trace.rows()))
    coverage = repr([int(c) for c in trace.episode_coverage])
    text = f"{rows}|{coverage}|{int(trace.convergence_episode)}"
    return hashlib.sha256(text.encode()).hexdigest()


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

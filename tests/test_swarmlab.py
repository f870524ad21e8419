import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgesim import macmodel as mm
from edgesim.macmodel import default_params
from edgesim import swarmlab as sl

SEED = 0xACE1

# sha256 of repr(WorkloadMetrics.row()) (plain Python values) at the default
# seed, captured from the per-agent APF loop that the batched apf_force replaced
GOLDEN = {
    ("path", 2): "c8fe8dfd006e9955904193a2dd6d89cf64bf87919ba83bc7ad0a4e774692d293",
    ("path", 10): "ae676f9ab463313278f40feb64f7c869857c810d9a9edf77824f475ca7d2e638",
    ("path", 20): "b4768766a92d3704a24441c405b04a68f61e18e00f5e8ac4f649a6ba9ba75ca9",
    ("formation", 2): "d30956c7d5553dcab8a6f6978776604eaea185b52d055decb2a86e6903ccc36a",
    ("formation", 10): "6ae6c0ee688441e353df5ed1f13d8a05cc040b266a4920b7866b8a9467a9337f",
    ("formation", 20): "a421942598c23f90fbe1e6b0f06df43ef38ab35bf56f3a8daa04a5d81c398ae5",
    ("predprey", 2): "e17c3a451de029ffca501c2dc6c7d51d0a1455a2c34b2e85b307a056a101760e",
    ("predprey", 10): "2f47046da49258b5bdfbbf9fc63524af87fd31255b32c2e95229ca88ab2a15ec",
    ("predprey", 20): "37e589bf708d3f2b1a76f42255d62eacb974baf7a19d9a6262cb3df072c1711a",
    ("explore", 2): "64339109ddd49234c9f5b6d329c43443f0360c0585a6e94e777bfd876605d196",
    ("explore", 10): "ca83f5a4222efc87d6d74f2b19e9d02297078c896917e8deb14c9e6223a9fc23",
    ("explore", 20): "f8401fd6924a675dc5af7736cdb690bf1c68b936371f2f19f63ffe51290c1e36",
}


# the same digest of grid runs at seed 1 under the other MAC models and
# predator policies, captured before the grid step was rewritten
GRID_GOLDEN = {
    ("explore", 10, "model", "tdms"):
        "2112208d0c161761db2f4aa5a130764af3b8531eb337f6414370670a6d790ee6",
    ("explore", 10, "model", "digital"):
        "abcd082518684e581b9e340b2100f158e75a44640a946ae6ae0536d814895889",
    ("predprey", 2, "predator_policy", "qlearn"):
        "e17c3a451de029ffca501c2dc6c7d51d0a1455a2c34b2e85b307a056a101760e",
    ("predprey", 2, "predator_policy", "random"):
        "a6759ddbddba16f7d8531b662144d932df10707c5b6d98eaa1264d3236728290",
    # captured before the predprey step read its LFSR words as one block; at
    # n >= 3 the prey flees the nearest of several predators, and at n=5 a
    # catch's reward reaches the Q-table before the run stops
    ("predprey", 3, "predator_policy", "qlearn"):
        "2c4f72853557aa05a01b26dc9f05c32f91b564739353243f77904c8ae266dc18",
    ("predprey", 3, "predator_policy", "random"):
        "4940c4125649e31300944cfd0e7b618518f03b12a8cf352affbed743398d4fe3",
    ("predprey", 5, "predator_policy", "qlearn"):
        "9dc3573214a210d3d5ef3a568ab8a84680642b82a3db05771b1b700062addcab",
    ("predprey", 5, "predator_policy", "random"):
        "3d022eab1e5ce8ef3e993fc5a092bd03a306fcfc37ded3497deefa9d14200b8f",
}

# sha256 over every step of (positions, prey, LFSR state, step energy, MACs,
# Q-table) at seed 1, captured at the same time: both predprey cases above
# end at the step budget, which their run digests alone barely pin
TRAJECTORY_GOLDEN = {
    ("predprey", 2, "predator_policy", "qlearn", 400):
        "31fc85900377645f7497f4b4d40be65dc7faf9ed5c975c9342ac8cea8665f864",
    ("predprey", 2, "predator_policy", "random", 400):
        "138bedb870c1b17bd96512bc5080811faf05f2b11f9b0cfa2442bbf855024059",
    ("explore", 10, "model", "hdms", 200):
        "8ad0e550761f989425bbc89eb4697d5c64b67c664af74f6967ae4bc9eaa9535f",
    ("explore", 10, "model", "digital", 200):
        "91a16aad1ca34cea9a2fd5503201d9389e5abea6e5c75c9d57ba726a1949dd1e",
    # captured with the n=3 and n=5 run digests above; the runs at n=5 end
    # early, so these also pin the steps after the catch
    ("predprey", 3, "predator_policy", "qlearn", 400):
        "eb1859d8abc7ee5ee3fa26855e0dd7d0e5faab5d41c2b0718e7ea93c73e22499",
    ("predprey", 3, "predator_policy", "random", 400):
        "af2daf2cf984af964052c2676b72332bcc8679baf2d0ba97145b7c628796ccd3",
    ("predprey", 5, "predator_policy", "qlearn", 400):
        "1fbad5d9b0096f61453adfa64640f58d0c96691c9ec86b5a8721e731da8fc54d",
    ("predprey", 5, "predator_policy", "random", 400):
        "3ab21fcd02db3565cc6fb2a4ca46cdbf37b29f50413430f0f685f9454f09ef7f",
}


@pytest.fixture(scope="module")
def golden_runs():
    return {case: sl.run_workload(sl.make_scenario(*case, seed=SEED)) for case in GOLDEN}


def _digest(m) -> str:
    workload, n, bits, steps, actions, energy, success, score = m.row()
    row = (str(workload), int(n), int(bits), int(steps), int(actions), float(energy),
           bool(success), float(score))
    return hashlib.sha256(repr(row).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(golden_runs, case):
    assert _digest(golden_runs[case]) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GRID_GOLDEN))
def test_grid_golden_digest(case):
    workload, n, key, value = case
    scn = sl.make_scenario(workload, n, seed=1, **{key: value})
    assert _digest(sl.run_workload(scn)) == GRID_GOLDEN[case]


def _trajectory_digest(scn, steps):
    cfg = scn.config
    meter = sl.LpuMeter(cfg.bits, default_params(), cfg.model)
    state = sl.init_state(scn)
    h = hashlib.sha256()
    for _ in range(steps):
        sm = sl.workload_step(state, cfg, meter)
        prey = None if state.prey is None else tuple(int(v) for v in state.prey)
        qtable = None if state.qtable is None else state.qtable.tolist()
        h.update(repr((state.positions.tolist(), prey, state.lfsr.state, sm.energy_pj, sm.macs,
                       qtable)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(TRAJECTORY_GOLDEN))
def test_grid_trajectory_digest(case):
    workload, n, key, value, steps = case
    scn = sl.make_scenario(workload, n, seed=1, **{key: value})
    assert _trajectory_digest(scn, steps) == TRAJECTORY_GOLDEN[case]


def _frontier_brute_force(visited):
    g = len(visited)
    w = sl.EXPLORE_WINDOW
    return np.array([[np.count_nonzero(~visited[max(x - w, 0):x + w + 1, max(y - w, 0):y + w + 1])
                      for y in range(g)] for x in range(g)])


@pytest.mark.parametrize("n,seed,extent", [(2, 1, 10.0), (10, 3, 10.0), (20, SEED, 10.0),
                                           (5, 2, 7.0)])
def test_explore_frontier_counts_match_brute_force(n, seed, extent):
    scn = sl.make_scenario("explore", n, seed=seed, extent=extent)
    cfg = scn.config
    meter = sl.LpuMeter(cfg.bits, default_params(), cfg.model)
    state = sl.init_state(scn)
    assert np.array_equal(state.frontier, _frontier_brute_force(state.visited))
    exhausted = False
    for _ in range(sl.DEFAULT_BUDGETS["explore"]):
        sl.workload_step(state, cfg, meter)
        assert np.array_equal(state.frontier, _frontier_brute_force(state.visited))
        exhausted |= bool((state.frontier == 0).any())
        if sl.workload_success(state, cfg)[0]:
            break
    assert exhausted  # the run reached fully explored windows


def test_grid_neighbours_are_clipped_moves():
    g = 6
    table = sl._grid_neighbours(g)
    for x in range(g):
        for y in range(g):
            for a, (dx, dy) in enumerate(sl.GRID_MOVES):
                clipped = (min(max(x + dx, 0), g - 1), min(max(y + dy, 0), g - 1))
                assert divmod(int(table[x, y, a]), g) == clipped


@pytest.mark.parametrize("n", [sl.MIN_AGENTS, 3, sl.MAX_AGENTS])
def test_other_agents_skip_self_in_index_order(n):
    table = sl._other_agents(n)
    assert table.tolist() == [[j for j in range(n) if j != i] for i in range(n)]
    assert table is sl._other_agents(n)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0


@pytest.mark.parametrize("bits", range(mm.MIN_BITS, mm.MAX_BITS + 1))
def test_feature_mags_quantize_every_frontier_count(bits):
    area = sl.EXPLORE_AREA
    table = sl._feature_mags(bits)
    assert table == tuple(mm.quantize_mag(f / area, bits, 1.0) for f in range(area + 1))
    assert list(table) == mm.quantize_mags(np.arange(area + 1) / area, bits, 1.0).tolist()
    # every feature is >= 0 and none is -0.0, so a product's sign is its weight's
    assert all(math.copysign(1.0, f / area) == 1.0 for f in range(area + 1))


# sha256 over every step of (positions, weights, LFSR state, step energy,
# MACs) of an explore run at seed 1 from signed start weights, captured when
# the step still re-quantized every operand through LpuMeter.mul: runs from
# the default weights of 1.0 never reach a negative weight, so the goldens
# above do not pin the sign of a product. In the first case weight 1 crosses
# from negative to positive; the second saturates two weights.
SIGNED_EXPLORE_GOLDEN = {
    (5, "hdms", (-0.5, -0.05, -0.0, -1.9)):
        "3c13077ebbb568cb539a93abd338e90cd8472838f4ade52244b53473b4157465",
    (20, "tdms", (-3.0, 2.5, -0.0, -0.2)):
        "6178caa7da14645f37a8fa82965e33775f2185709545dd52ac1bd0484456c299",
}


@pytest.mark.parametrize("case", sorted(SIGNED_EXPLORE_GOLDEN))
def test_explore_from_signed_weights_digest(case):
    n, model, weights = case
    scn = sl.make_scenario("explore", n, seed=1, model=model)
    cfg = scn.config
    meter = sl.LpuMeter(cfg.bits, default_params(), cfg.model)
    state = sl.init_state(scn)
    state.explore_w[:] = weights
    h = hashlib.sha256()
    for _ in range(60):
        sm = sl.workload_step(state, cfg, meter)
        h.update(repr((state.positions.tolist(), state.explore_w.tolist(), state.lfsr.state,
                       sm.energy_pj, sm.macs)).encode())
    assert h.hexdigest() == SIGNED_EXPLORE_GOLDEN[case]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_explore_rejects_a_non_finite_weight(bad):
    scn = sl.make_scenario("explore", 3, seed=1)
    cfg = scn.config
    meter = sl.LpuMeter(cfg.bits, default_params(), cfg.model)
    state = sl.init_state(scn)
    state.explore_w[2] = bad
    with pytest.raises(ValueError, match="LPU operands must be finite"):
        sl.workload_step(state, cfg, meter)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


# the same digest of predprey runs from Q-tables with all-negative rows, so
# that the bootstrap product's sign matters (it changes no default run),
# captured while the bootstrap MAC still ran through LpuMeter.mul
SIGNED_PREDPREY_GOLDEN = {
    (3, "hdms", "all -1.5"): "f2ac2b58fe782470d502132772d7c886bff956aad1b4cb759bf53d701d699822",
    (10, "tdms", "signed ramp"): "a392da21a39cd618a60a7bd1719226ec95f9fe749d7dfa04e509686a5c1b4e52",
}


@pytest.mark.parametrize("case", sorted(SIGNED_PREDPREY_GOLDEN))
def test_predprey_from_negative_q_values_digest(case):
    n, model, fill = case
    scn = sl.make_scenario("predprey", n, seed=1, model=model)
    cfg = scn.config
    meter = sl.LpuMeter(cfg.bits, default_params(), cfg.model)
    state = sl.init_state(scn)
    state.qtable[:] = (np.full((16, 4), -1.5) if fill == "all -1.5"
                       else np.linspace(-6.0, 2.0, 64).reshape(16, 4))
    h = hashlib.sha256()
    for _ in range(40):
        sm = sl.workload_step(state, cfg, meter)
        h.update(repr((state.positions.tolist(), state.prey, state.qtable.tolist(),
                       state.lfsr.state, sm.energy_pj, sm.macs)).encode())
    assert h.hexdigest() == SIGNED_PREDPREY_GOLDEN[case]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predprey_rejects_a_non_finite_q_value_before_charging(bad):
    # the bootstrap MAC multiplies the next state's largest Q value; a NaN
    # failed inside int() naming nothing, and an infinity would saturate
    scn = sl.make_scenario("predprey", 2, seed=1)
    cfg = scn.config
    meter = sl.LpuMeter(cfg.bits, default_params(), cfg.model)
    state = sl.init_state(scn)
    state.qtable[:] = bad
    with pytest.raises(ValueError, match="LPU operands must be finite"):
        sl.workload_step(state, cfg, meter)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


def test_golden_outcomes(golden_runs):
    for n in (2, 10, 20):
        assert golden_runs["path", n].success
        assert golden_runs["formation", n].success
    predprey = golden_runs["predprey", 2]
    assert (predprey.steps, predprey.success) == (sl.DEFAULT_BUDGETS["predprey"], False)
    explore = golden_runs["explore", 2]
    assert (explore.success, explore.score) == (False, 0.67)


@pytest.mark.parametrize("g", [1, 4, 7, 10, 33])
def test_explore_coverage_is_the_visited_mean(g):
    # the score counts visited cells and divides once, which is the float
    # visited.mean() gives, on empty, full and random maps
    cfg = sl.SwarmConfig(workload="explore", n_agents=2, seed=1)
    rng = np.random.default_rng(g)
    maps = [np.zeros((g, g), dtype=bool), np.ones((g, g), dtype=bool)]
    maps += [rng.random((g, g)) < p for p in (0.1, 0.5, 0.9, 0.97)]
    for visited in maps:
        state = sl.WorkloadState(positions=np.zeros((2, 2), dtype=int), visited=visited)
        success, coverage = sl.workload_success(state, cfg)
        assert type(coverage) is float and coverage == float(visited.mean())
        assert success is (coverage >= 0.9)


# ---------------------------------------------------------------------------
# batched APF


def _apf_force_reference(pos, goal, obstacles, params, meter):
    """One agent, one scalar LPU call per term: the loop apf_force batches."""
    sat = 2.0 * params.v_max
    err_c = np.clip(goal - pos, -sat, sat)
    force = meter.mul(np.full(2, params.k_att), err_c, max(params.k_att, 1.0), sat)
    f_cap = 4.0 * params.v_max
    for obs in obstacles:
        delta = pos - obs
        d = float(np.hypot(*delta))
        if d >= params.d0:
            continue
        dc = max(d, sl.D_FLOOR)
        u0 = 1.0 / params.d0
        direction = delta / d
        u = meter.nfe(dc)
        uu = meter.mul(u, u, 1.0 / sl.D_FLOOR, 1.0 / sl.D_FLOOR)
        push = meter.mul(params.k_rep * (u - u0), uu, 10.0, (1.0 / sl.D_FLOOR) ** 2)
        force = force + meter.mul(np.full(2, push), direction, f_cap, 1.0)
    norm = float(np.hypot(*force))
    if norm > params.v_max:
        force = force * (params.v_max / norm)
    return force


def _random_swarm(rng, n, m):
    """n agents in a 3x3 box with m static obstacles; agent 1 sits inside
    D_FLOOR of agent 0, and the box is wider than d0."""
    pos = rng.uniform(0.0, 3.0, size=(n, 2))
    pos[1] = pos[0] + rng.uniform(0.02, 0.06, size=2)
    goal = rng.uniform(0.0, 3.0, size=(n, 2))
    static = rng.uniform(0.0, 3.0, size=(m, 2))
    obstacles = np.stack([np.concatenate([np.delete(pos, i, axis=0), static]) for i in range(n)])
    return pos, goal, obstacles


@pytest.mark.parametrize("model,bits", [("digital", 4), ("tdms", 5), ("hdms", 3), ("hdms", 8)])
def test_batched_apf_matches_per_agent_calls(model, bits):
    params = default_params()
    pot = sl.PotentialParams()
    rng = np.random.default_rng(7)
    near = far = False
    for n, m in ((1, 0), (2, 1), (6, 0), (12, 3)):
        pos, goal, obstacles = _random_swarm(rng, max(n, 2), m)
        pos, goal, obstacles = pos[:n], goal[:n], obstacles[:n]
        d = np.hypot(*(pos[:, None, :] - obstacles).transpose(2, 0, 1))
        near |= bool((d < sl.D_FLOOR).any())
        far |= bool((d >= pot.d0).any())
        meters = [sl.LpuMeter(bits, params, model) for _ in range(3)]
        batched = sl.apf_force(pos, goal, obstacles, pot, meters[0])
        one_by_one = np.concatenate([
            sl.apf_force(pos[i:i + 1], goal[i:i + 1], obstacles[i:i + 1], pot, meters[1])
            for i in range(n)])
        reference = np.stack([
            _apf_force_reference(pos[i], goal[i], obstacles[i], pot, meters[2])
            for i in range(n)])
        assert batched.shape == (n, 2)
        assert batched.tobytes() == one_by_one.tobytes() == reference.tobytes()
        assert meters[0].energy_pj == meters[1].energy_pj == meters[2].energy_pj
        assert meters[0].macs == meters[1].macs == meters[2].macs > 0
    assert near and far


def test_apf_agent_on_obstacle_raises():
    pot = sl.PotentialParams()
    meter = sl.LpuMeter(5, default_params())
    pos = np.array([[1.0, 1.0], [4.0, 4.0]])
    obstacles = np.array([[[4.0, 4.0], [1.0, 1.0]], [[1.0, 1.0], [9.0, 9.0]]])
    with pytest.raises(ValueError, match="obstacle"):
        sl.apf_force(pos, pos + 1.0, obstacles, pot, meter)


def _apf_scene():
    """Two agents: agent 0 is pushed by its first point, agent 1 by none."""
    pos = np.array([[1.0, 1.0], [4.0, 4.0]])
    goal = np.array([[3.0, 1.0], [4.0, 2.0]])
    obstacles = np.array([[[1.5, 1.0], [9.0, 9.0]], [[1.0, 1.0], [9.0, 9.0]]])
    return pos, goal, obstacles


def _nan_goal(pos, goal, obstacles):
    goal[0, 1] = np.nan


def _nan_position(pos, goal, obstacles):
    pos[1, 0] = np.nan


def _nan_pushing_point(pos, goal, obstacles):
    obstacles[0, 0] = (np.nan, 1.0)


def _nan_goal_and_agent_on_point(pos, goal, obstacles):
    goal[1, 0] = np.nan
    obstacles[0, 1] = pos[0]


def _nan_point_and_agent_on_point(pos, goal, obstacles):
    obstacles[1, 0] = (np.nan, np.nan)
    obstacles[0, 1] = pos[0]


# a NaN goal or position fails on the attraction, before the singular-field
# check; a NaN point always pushes, and fails after it
@pytest.mark.parametrize("spoil,error", [
    (_nan_goal, "LPU operands must be finite"), (_nan_position, "LPU operands must be finite"),
    (_nan_pushing_point, "LPU operands must be finite"),
    (_nan_goal_and_agent_on_point, "LPU operands must be finite"),
    (_nan_point_and_agent_on_point, "singular field")])
def test_apf_rejects_non_finite_operands_before_charging(spoil, error):
    pot = sl.PotentialParams()
    meter = sl.LpuMeter(5, default_params())
    sl.apf_force(*_apf_scene(), pot, meter)
    charged = (meter.energy_pj, meter.macs)
    pos, goal, obstacles = _apf_scene()
    spoil(pos, goal, obstacles)
    with pytest.raises(ValueError, match=error):
        sl.apf_force(pos, goal, obstacles, pot, meter)
    assert (meter.energy_pj, meter.macs) == charged


def test_apf_saturates_an_infinite_goal_and_skips_a_far_infinite_point():
    pot = sl.PotentialParams()
    pos, goal, obstacles = _apf_scene()
    meters = [sl.LpuMeter(5, default_params()) for _ in range(2)]
    want = sl.apf_force(pos, goal, obstacles, pot, meters[0])
    # goal errors saturate at 2 v_max, so these goals attract as the old ones
    goal[0] = (np.inf, 1.0)
    goal[1] = (4.0, -np.inf)
    obstacles[0, 1] = (np.inf, -np.inf)
    obstacles[1, 1] = (9.0, np.inf)
    got = sl.apf_force(pos, goal, obstacles, pot, meters[1])
    assert got.tobytes() == want.tobytes()
    assert (meters[1].energy_pj, meters[1].macs) == (meters[0].energy_pj, meters[0].macs)


def test_recip_table_is_the_built_table_and_read_only():
    breaks = np.linspace(sl.D_FLOOR, sl.D_CEIL, sl.RECIP_SEGMENTS + 1)
    assert sl.RECIP_BREAKS.tobytes() == breaks.tobytes()
    assert sl.RECIP_VALUES.tobytes() == (1.0 / breaks).tobytes()
    for table in (sl.RECIP_BREAKS, sl.RECIP_VALUES):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_nfe_recip_reads_the_chord_table_and_saturates():
    # exact at every breakpoint, including the clipped last segment's end
    assert [sl.nfe_recip(b) for b in sl.RECIP_BREAKS] == sl.RECIP_VALUES.tolist()
    assert sl.nfe_recip(0.01) == sl.nfe_recip(sl.D_FLOOR) == 10.0
    assert sl.nfe_recip(5.0) == sl.nfe_recip(sl.D_CEIL) == 0.5
    assert isinstance(sl.nfe_recip(np.float64(1.0)), float)
    mid = (sl.RECIP_BREAKS[:-1] + sl.RECIP_BREAKS[1:]) / 2
    chord = (sl.RECIP_VALUES[:-1] + sl.RECIP_VALUES[1:]) / 2
    assert sl.nfe_recip(mid).shape == mid.shape
    assert np.allclose(sl.nfe_recip(mid), chord, rtol=1e-12, atol=0)


def test_meter_nfe_charges_one_mac_per_lookup():
    meter = sl.LpuMeter(5, default_params())
    mid = ((1 << 5) - 1) // 2
    assert meter.nfe_pj == meter.energy(mid, mid)
    x = np.array([0.05, 0.3, 1.0, 2.5])
    assert meter.nfe(x).tobytes() == sl.nfe_recip(x).tobytes()
    assert meter.nfe(1) == sl.nfe_recip(1.0)
    assert (meter.energy_pj, meter.macs) == (float(np.full(5, meter.nfe_pj).sum()), 5)
    # infinities saturate at the table's ends
    assert meter.nfe([np.inf, -np.inf]).tolist() == [0.5, 10.0]


@pytest.mark.parametrize("x,error", [
    (np.nan, ValueError), ([0.5, np.nan], ValueError), (True, TypeError),
    (np.array([True]), TypeError), ("x", TypeError), (None, TypeError), ([0.5, "1"], TypeError)])
def test_meter_nfe_rejects_what_mul_rejects(x, error):
    # nfe(nan) returned nan and charged a MAC, nfe(True) looked up 1.0 and
    # nfe("x") failed inside numpy, naming nothing
    meter = sl.LpuMeter(5, default_params())
    with pytest.raises(error, match="LPU operands must be"):
        meter.nfe(x)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


def test_check_collisions():
    cfg = sl.SwarmConfig(workload="path", n_agents=3)

    def collided(positions, obstacles):
        state = sl.WorkloadState(positions=np.array(positions, dtype=float),
                                 obstacles=np.array(obstacles, dtype=float).reshape(-1, 2))
        sl._check_collisions(state, cfg)
        return state.collided

    assert not collided([[0, 0], [1, 0], [0, 1]], [[5, 5]])
    assert collided([[0, 0], [1, 0], [1.2, 0.1]], [[5, 5]])
    assert collided([[0, 0], [1, 0], [0, 1]], [[0.1, 1.1]])
    assert not collided([[0, 0], [1, 0], [0, 1]], [])


# ---------------------------------------------------------------------------
# meter and scenario boundaries


def _operand(v, kind):
    """``v`` as an ndarray or as a Python float or list of floats."""
    v = np.asarray(v, dtype=float)
    return v if kind == "numpy" else v.tolist()


KINDS = ("numpy", "python")


# each check runs on both operand kinds
@pytest.mark.parametrize("a,b", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5),
                                 (np.array([0.5, np.nan]), np.ones(2)),
                                 (np.ones(2), np.array([-np.inf, 0.5])),
                                 (np.inf, -np.inf)])
def test_meter_rejects_non_finite_operands(a, b):
    for kind in KINDS:
        meter = sl.LpuMeter(5, default_params())
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            meter.mul(_operand(a, kind), _operand(b, kind), 1.0, 1.0)
        assert (meter.energy_pj, meter.macs) == (0.0, 0)


@pytest.mark.parametrize("a_range,b_range", [(-1.0, 1.0), (1.0, -1.0), (0.0, 1.0), (1.0, 0.0),
                                             (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                             (1.0, np.inf), (-np.inf, 1.0)])
def test_meter_rejects_bad_ranges(a_range, b_range):
    # a negative range used to flip the sign and a zero range to fail on a NaN cast
    for kind in KINDS:
        meter = sl.LpuMeter(5, default_params())
        with pytest.raises(ValueError, match="range"):
            meter.mul(_operand(0.5, kind), _operand(0.5, kind), a_range, b_range)
        with pytest.raises(ValueError, match="range"):
            meter.mul(_operand([0.5, -0.5], kind), _operand([0.5, 0.5], kind), a_range, b_range)
        assert (meter.energy_pj, meter.macs) == (0.0, 0)


@pytest.mark.parametrize("a,b,a_range,b_range", [
    (True, 0.5, 1.0, 1.0), (0.5, np.bool_(False), 1.0, 1.0),
    (np.array([True, False]), np.ones(2), 1.0, 1.0), ([0.5, 0.5], np.array([True, True]), 1.0, 1.0),
    (0.5, 0.5, True, 1.0), (0.5, 0.5, 1.0, np.bool_(True)), ([0.5], [0.5], False, 1.0),
    (np.ones(2), np.ones(2), 2.0, True), ([True, 0.5], [0.5, 0.5], 1.0, 1.0),
    ([0.5, 0.5], [0.5, np.bool_(False)], 1.0, 1.0)])
def test_meter_rejects_bools(a, b, a_range, b_range):
    # mul(True, 0.5, 1.0, 1.0) multiplied True as 1.0, a True range scaled
    # as 1.0, and mul([True, 0.5], [0.5, 0.5], 1.0, 1.0) charged 2 MACs
    meter = sl.LpuMeter(5, default_params())
    with pytest.raises(TypeError, match="LPU"):
        meter.mul(a, b, a_range, b_range)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


@pytest.mark.parametrize("a,b", [
    ([True, 0.5], 0.5), (0.5, [0.5, np.bool_(True)]), ([True, 0.5], np.ones(2)),
    (np.ones(2), [0.5, False]), ([[0.5], [True]], 0.5)])
def test_meter_checks_list_elements_against_any_operand(a, b):
    # the elements of a list were checked only against another list:
    # mul([True, 0.5], 0.5, 1.0, 1.0) returned [0.516, 0.266] and charged 2 MACs
    meter = sl.LpuMeter(5, default_params())
    with pytest.raises(TypeError, match="LPU operands must be real numbers"):
        meter.mul(a, b, 1.0, 1.0)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


@pytest.mark.parametrize("a,b,a_range,b_range", [
    ("x", 0.5, 1.0, 1.0), (0.5, None, 1.0, 1.0), (np.array(["1"]), np.ones(1), 1.0, 1.0),
    (0.5, 0.5, None, 1.0), (0.5, 0.5, 1.0, "1"), (np.ones(2), np.ones(2), "2", 1.0),
    (["x", 0.5], [0.5, 0.5], 1.0, 1.0), ([0.5], [[0.5]], 1.0, 1.0), ([None], [0.5], 1.0, 1.0)])
def test_meter_rejects_non_numbers(a, b, a_range, b_range):
    # a str operand failed inside numpy's add, a None range comparing None
    # with an int, and a str or list element in a list operand inside
    # math.isfinite, each naming nothing
    meter = sl.LpuMeter(5, default_params())
    with pytest.raises(TypeError, match="LPU"):
        meter.mul(a, b, a_range, b_range)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


@pytest.mark.parametrize("a,b", [([0.5, 0.5], [0.5]), ([], [0.5]), ([0.5], [])])
def test_meter_rejects_unequal_length_lists(a, b):
    # zip would silently drop the longer list's tail
    meter = sl.LpuMeter(5, default_params())
    with pytest.raises(ValueError, match="length"):
        meter.mul(a, b, 1.0, 1.0)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


def test_meter_python_path_takes_int_elements():
    ints, floats = (sl.LpuMeter(5, default_params()) for _ in range(2))
    got = ints.mul([1, -2, np.int64(0)], [0.5, 0.25, np.float64(-0.5)], 2.0, 1.0)
    assert np.array_equal(got, floats.mul([1.0, -2.0, 0.0], [0.5, 0.25, -0.5], 2.0, 1.0))
    assert (ints.energy_pj, ints.macs) == (floats.energy_pj, floats.macs)


def test_meter_saturates_huge_finite_operands():
    for kind in KINDS:
        meter = sl.LpuMeter(5, default_params())
        with np.errstate(over="ignore"):
            assert meter.mul(_operand(1e308, kind), _operand(1e308, kind), 1.0, 1.0) == 1.0
            out = meter.mul(_operand([1e308, -1e308], kind), _operand([1e308, 1e308], kind),
                            1.0, 1.0)
        assert list(out) == [1.0, -1.0]
        assert meter.macs == 3


_lpu_operands = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


# lists and floats run mul's one numpy path, as ndarrays and 0-d arrays do
@settings(max_examples=300, deadline=None)
@given(bits=st.integers(mm.MIN_BITS, mm.MAX_BITS), model=st.sampled_from(mm.MODELS),
       pairs=st.lists(st.tuples(_lpu_operands, _lpu_operands), min_size=1, max_size=12),
       ranges=st.tuples(st.sampled_from([1.0, 2.0, 8.0]), st.floats(1e-3, 1e3)))
@example(bits=3, model="hdms", pairs=[(0.0, -0.0), (-0.0, -1.0), (-0.4, 0.9), (1e308, -1e308)],
         ranges=(1.0, 1.0))
def test_meter_python_path_matches_numpy_path(bits, model, pairs, ranges):
    params = default_params()
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    by_list, by_array, by_float, by_0d = (sl.LpuMeter(bits, params, model) for _ in range(4))
    with np.errstate(over="ignore"):
        want = by_array.mul(np.array(xs), np.array(ys), *ranges)
        got = by_list.mul(xs, ys, *ranges)
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
        assert (by_list.energy_pj, by_list.macs) == (by_array.energy_pj, by_array.macs)
        for x, y in pairs:
            got = by_float.mul(x, y, *ranges)
            want = by_0d.mul(np.array(x), np.array(y), *ranges)
            assert type(got) is float and np.array(got).tobytes() == np.array(want).tobytes()
            assert (by_float.energy_pj, by_float.macs) == (by_0d.energy_pj, by_0d.macs)


# the explore step's second operand is a frontier feature f / area
_features = st.integers(0, sl.EXPLORE_AREA).map(lambda f: f / sl.EXPLORE_AREA)


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(mm.MIN_BITS, mm.MAX_BITS), model=st.sampled_from(mm.MODELS),
       pairs=st.lists(st.tuples(_lpu_operands, st.one_of(_features, _lpu_operands)),
                      min_size=1, max_size=7),
       ranges=st.tuples(st.sampled_from([1.0, 2.0, 8.0]), st.floats(1e-3, 1e3)))
@example(bits=3, model="hdms", pairs=[(-0.0, 0.2), (-1.5, 1.0), (2.5, 0.04), (-1.7e308, 0.0),
                                      (0.3, -0.0), (-0.0, -0.7)], ranges=(2.0, 1.0))
@example(bits=8, model="tdms", pairs=[(1e308, 0.48), (-3.0, 1.0), (-0.0, 0.0)],
         ranges=(2.0, 1.0))
def test_meter_mul_mags_matches_mul(bits, model, pairs, ranges):
    # fed quantize_mag magnitudes and the < 0 sign rule, the magnitude entry
    # point returns and charges what mul does on the floats, on both paths
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    by_mags, by_list, by_array = (sl.LpuMeter(bits, default_params(), model) for _ in range(3))
    got = by_mags.mul_mags([mm.quantize_mag(x, bits, ranges[0]) for x in xs],
                           [mm.quantize_mag(y, bits, ranges[1]) for y in ys],
                           [(x < 0) != (y < 0) for x, y in pairs], *ranges)
    assert type(got) is list
    with np.errstate(over="ignore"):
        wants = (by_list.mul(xs, ys, *ranges), by_array.mul(np.array(xs), np.array(ys), *ranges))
    for want in wants:
        assert np.array(got).tobytes() == np.array(want).tobytes()
    for meter in (by_list, by_array):
        assert (meter.energy_pj, meter.macs) == (by_mags.energy_pj, by_mags.macs)


# operand shapes that broadcast: 0-d, equal lengths (8 or more sum
# pairwise), a scalar against an array, and apf_force's (P, 1) x (P, 2) push
_broadcast_shapes = st.one_of(
    st.just(((), ())),
    st.integers(0, 12).map(lambda k: ((k,), (k,))),
    st.integers(0, 4).map(lambda k: ((), (k,))),
    st.integers(0, 9).map(lambda p: ((p, 1), (p, 2))),
)


@st.composite
def _operand_arrays(draw):
    shape_a, shape_b = draw(_broadcast_shapes)
    return (draw(arrays(np.float64, shape_a, elements=_lpu_operands)),
            draw(arrays(np.float64, shape_b, elements=_lpu_operands)))


@pytest.mark.parametrize("model", mm.MODELS)
@pytest.mark.parametrize("bits", range(mm.MIN_BITS, mm.MAX_BITS + 1))
@settings(max_examples=40, deadline=None)
@given(operands=_operand_arrays(),
       ranges=st.tuples(st.sampled_from([1.0, 2.0, 8.0]), st.floats(1e-3, 1e3)))
@example(operands=(np.array([[-0.0], [1e308], [-0.3], [2.0]]),
                   np.array([[0.5, -0.0], [-1.7e308, 0.2], [0.1, -0.4], [-0.0, 0.0]])),
         ranges=(1.0, 2.0))
@example(operands=(np.array(-0.0), np.array(-0.7)), ranges=(1.0, 1.0))
def test_meter_mul_mag_arrays_matches_mul(bits, model, operands, ranges):
    # fed quantize_mags magnitudes and the < 0 sign rule, the numpy body
    # returns what mul does on the arrays and charges nothing; energy() of
    # the magnitudes is what mul charges
    a, b = operands
    by_mags, by_mul = (sl.LpuMeter(bits, default_params(), model) for _ in range(2))
    a_mags, b_mags = mm.quantize_mags(a, bits, ranges[0]), mm.quantize_mags(b, bits, ranges[1])
    got = by_mags.mul_mag_arrays(a_mags, b_mags, np.less(a, 0) != np.less(b, 0), *ranges)
    with np.errstate(over="ignore"):
        want = by_mul.mul(a, b, *ranges)
    assert type(got) is type(want) is (float if a.ndim == b.ndim == 0 else np.ndarray)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert (by_mags.energy_pj, by_mags.macs) == (0.0, 0)
    e = by_mags.energy(a_mags, b_mags)
    assert (float(e.sum()), e.size) == (by_mul.energy_pj, by_mul.macs)


@pytest.mark.parametrize("bits", range(3, 9))
@pytest.mark.parametrize("model", mm.MODELS)
def test_meter_energy_table_matches_models(model, bits):
    params = default_params()
    meter = sl.LpuMeter(bits, params, model)
    mags = np.arange(1 << bits)
    x, w = np.meshgrid(mags, mags, indexing="ij")
    if model == "digital":
        expect = np.full(x.shape, mm.digital_energy(bits, params))
    elif model == "tdms":
        expect = mm.tdms_energy(x * w, bits, params)
    else:
        expect = mm.hdms_energy(x, w, bits, params)
    got = meter.energy(x, w)
    assert got.dtype == np.float64 and got.tobytes() == expect.tobytes()
    assert meter.energy(3, 5) == expect[3, 5]
    table = mm.energy_table(bits, model, params)
    assert table is mm.energy_table(bits, model, params)
    with pytest.raises(ValueError):
        table[1, 1] = 0.0
    assert table[1, 1] == expect[1, 1]


def test_quantized_qvalues_keep_negative_zero():
    # the predprey trajectory golden hashes qtable.tolist(), where -0.0 and
    # 0.0 differ: entries that round to 0 from below must stay -0.0
    got = sl._quantize_qvalues(np.array([-1e-9, -0.5 / 7, -5e-324, 1e-9, 0.0]), 3)
    assert np.array_equal(got, np.zeros(5))
    assert np.signbit(got).tolist() == [True, True, True, False, False]


def test_swarm_config_is_frozen():
    scn = sl.make_scenario("predprey", 2, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scn.config.predator_policy = "greedy"  # would skip validation


@pytest.mark.parametrize("n_agents", [2.5, 3.0, True, "3"])
def test_swarm_config_rejects_non_integer_agents(n_agents):
    with pytest.raises(TypeError, match="n_agents"):
        sl.SwarmConfig(workload="explore", n_agents=n_agents)


def test_swarm_config_accepts_numpy_integer_agents():
    scn = sl.make_scenario("explore", np.int64(3), seed=1)
    assert scn.config.bits == sl.bitwidth_for_swarm(3)
    assert sl.run_workload(scn, budget=5).row() == sl.run_workload(
        sl.make_scenario("explore", 3, seed=1), budget=5).row()


@pytest.mark.parametrize("name", ["extent", "goal_tolerance", "slot_tolerance", "collision_radius"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_swarm_config_floats_must_be_positive_and_finite(name, value):
    # an infinite extent constructed, then make_scenario failed inside numpy
    with pytest.raises(ValueError, match=name):
        sl.SwarmConfig(workload="path", n_agents=3, **{name: value})
    with pytest.raises(ValueError, match=name):
        sl.make_scenario("path", 3, **{name: value})


@pytest.mark.parametrize("workload", ["explore", "predprey"])
def test_grid_workloads_need_a_cell_per_agent(tmp_path, workload):
    # explore at n=20 and extent 3 placed 16 agents on its 4x4 grid and still
    # reported n_agents=20, and predprey ran 15 predators
    for n, extent in ((20, 3.0), (17, 4.0), (20, 4.4)):
        with pytest.raises(ValueError, match="extent"):
            sl.make_scenario(workload, n, extent=extent)
    # a cell for every agent, the prey included, is enough
    scn = sl.make_scenario(workload, 16, extent=4.0, seed=1)
    assert len(np.unique(scn.agents, axis=0)) == 16
    assert sl.run_workload(scn, budget=2).n_agents == 16
    # path and formation place their agents in the plane, not on cells
    assert sl.SwarmConfig("path", 20, extent=3.0).grid_size ** 2 < 20
    # a scenario file goes through the same check
    path = tmp_path / "scn.txt"
    sl.save_scenario(scn, path)
    path.write_text(path.read_text().replace("n_agents = 16", "n_agents = 17") + "0.0 0.0\n")
    with pytest.raises(ValueError, match="extent"):
        sl.load_scenario(path)


@pytest.mark.parametrize("name", ["k_att", "k_rep", "d0", "v_max"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_potential_params_must_be_positive_and_finite(name, value):
    # an infinite gain constructed and failed only inside LpuMeter.mul
    with pytest.raises(ValueError, match=name):
        sl.PotentialParams(**{name: value})


@pytest.mark.parametrize("name", ["extent", "goal_tolerance", "slot_tolerance", "collision_radius"])
@pytest.mark.parametrize("value", [True, np.bool_(True), "10", None])
def test_swarm_config_floats_reject_bools_and_non_numbers(name, value):
    # SwarmConfig("path", 5, extent=True) made a 4-cell grid, and extent="10"
    # failed comparing a str with an int, naming no field
    with pytest.raises(TypeError, match=name):
        sl.SwarmConfig(workload="path", n_agents=5, **{name: value})


@pytest.mark.parametrize("name", ["k_att", "k_rep", "d0", "v_max"])
@pytest.mark.parametrize("value", [True, "x", None])
def test_potential_params_reject_bools_and_non_numbers(name, value):
    with pytest.raises(TypeError, match=name):
        sl.PotentialParams(**{name: value})


@pytest.mark.parametrize("potential", [{}, None, 1.0, sl.PotentialParams])
def test_swarm_config_potential_must_be_potential_params(potential):
    # make_scenario("path", 2, potential={}) constructed, and run_workload then
    # raised AttributeError: 'dict' object has no attribute 'v_max'
    with pytest.raises(TypeError, match="potential"):
        sl.make_scenario("path", 2, potential=potential)


def test_meter_rejects_unknown_model():
    with pytest.raises(ValueError, match="model"):
        sl.LpuMeter(5, default_params(), "analog")


def test_scenario_file_roundtrip(tmp_path):
    scn = sl.make_scenario("path", 4, seed=0x1234, extent=12.0, model="tdms",
                           goal_tolerance=0.5, slot_tolerance=0.2, collision_radius=0.4,
                           predator_policy="random",
                           potential=sl.PotentialParams(k_att=2.0, k_rep=0.3, d0=1.25, v_max=0.1))
    path = tmp_path / "scn.txt"
    sl.save_scenario(scn, path)
    back = sl.load_scenario(path)
    assert back.config == scn.config
    for name in ("agents", "goals", "obstacles"):
        assert np.array_equal(getattr(back, name), getattr(scn, name))
    assert back.slots is None


def test_scenario_file_defaults_and_unknown_keys(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("[scenario]\nworkload = formation\nn_agents = 2\n\n[agents]\n1.0 2.0\n3.0 4.0\n")
    assert sl.load_scenario(path).config == sl.SwarmConfig(workload="formation", n_agents=2)
    path.write_text("[scenario]\nworkload = formation\nn_agents = 2\ngoal_tolerence = 0.5\n"
                    "\n[agents]\n1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ValueError, match="goal_tolerence"):
        sl.load_scenario(path)
    path.write_text("[scenario]\nworkload = formation\nn_agents = 2\nmodel = analog\n"
                    "\n[agents]\n1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ValueError, match="model"):
        sl.load_scenario(path)


def _scenario_file(path, keys, points=((1.0, 2.0), (3.0, 4.0)), section="agents"):
    lines = ["[scenario]", "workload = formation", "n_agents = 2"]
    lines += [f"{key} = {text}" for key, text in keys.items()]
    lines += ["", f"[{section}]"] + [f"{x} {y}" for x, y in points]
    if section != "agents":
        lines += ["[agents]", "1.0 2.0", "3.0 4.0"]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("key, text", [("n_agents", "2.5"), ("n_agents", "True"), ("seed", "x"),
                                       ("seed", "2.0"), ("extent", "None"), ("k_att", "ten"),
                                       ("goal_tolerance", "")])
def test_scenario_file_names_unreadable_values(tmp_path, key, text):
    # int("2.5") raised "invalid literal for int()", naming no field
    with pytest.raises(ValueError, match=key):
        sl.load_scenario(_scenario_file(tmp_path / "scn.txt", {key: text}))


@pytest.mark.parametrize("section, points", [("agents", ((1.0, 2.0),)),
                                             ("agents", ((1.0, 2.0), (3.0, 4.0), (5.0, 1.0))),
                                             ("slots", ((5.0, 5.0),))])
def test_scenario_file_counts_points_per_agent(tmp_path, section, points):
    # two formation agents with one slot, or n_agents = 3 with two agent rows,
    # loaded, and the run failed broadcasting the arrays against each other
    path = _scenario_file(tmp_path / "scn.txt", {}, points, section)
    with pytest.raises(ValueError, match="n_agents"):
        sl.load_scenario(path)
    path.write_text(path.read_text().replace("n_agents = 2", "n_agents = 3"))
    if section == "agents" and len(points) == 3:
        assert sl.run_workload(sl.load_scenario(path), budget=2).steps == 2


@pytest.mark.parametrize("workload", ["explore", "predprey"])
@pytest.mark.parametrize("seed", [0, 0x1ACE1, -5])
def test_grid_workloads_reject_seeds_outside_the_lfsr_range(workload, seed):
    # the grid workloads start their LFSR at the seed; a seed it rejects used
    # to construct and then fail at the first run
    with pytest.raises(ValueError, match="seed"):
        sl.make_scenario(workload, 3, seed=seed)


@pytest.mark.parametrize("workload", ["path", "formation"])
def test_apf_workloads_take_any_non_negative_seed(workload):
    for seed in (0, 0x1ACE1):
        assert sl.make_scenario(workload, 3, seed=seed).config.seed == seed
    with pytest.raises(ValueError, match="seed"):
        sl.make_scenario(workload, 3, seed=-5)


@pytest.mark.parametrize("workload", sl.WORKLOADS)
@pytest.mark.parametrize("seed", [1.5, 2.0, True, "1", None])
def test_swarm_config_rejects_non_integer_seeds(workload, seed):
    with pytest.raises(TypeError, match="seed"):
        sl.SwarmConfig(workload=workload, n_agents=3, seed=seed)


def test_grid_workloads_run_at_both_ends_of_the_seed_range():
    for workload in ("explore", "predprey"):
        for seed in (1, 0xFFFF, np.uint16(0xFFFF)):
            scn = sl.make_scenario(workload, 3, seed=seed)
            assert sl.run_workload(scn, budget=3).steps <= 3


@pytest.mark.parametrize("budget, error", [(-1, ValueError), (2.5, TypeError), (3.0, TypeError),
                                           (True, TypeError), ("3", TypeError)])
def test_run_workload_rejects_bad_budgets(budget, error):
    scn = sl.make_scenario("explore", 3, seed=1)
    with pytest.raises(error, match="budget"):
        sl.run_workload(scn, budget=budget)


def test_run_workload_budgets():
    scn = sl.make_scenario("explore", 3, seed=1)
    assert sl.run_workload(scn, budget=0).steps == 0
    assert sl.run_workload(scn, budget=np.int64(4)).row() == sl.run_workload(scn, budget=4).row()
    assert (sl.run_workload(scn, budget=None).row()
            == sl.run_workload(scn, budget=sl.DEFAULT_BUDGETS["explore"]).row())

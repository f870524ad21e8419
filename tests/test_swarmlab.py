import hashlib

import numpy as np
import pytest

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


def test_golden_outcomes(golden_runs):
    for n in (2, 10, 20):
        assert golden_runs["path", n].success
        assert golden_runs["formation", n].success
    predprey = golden_runs["predprey", 2]
    assert (predprey.steps, predprey.success) == (sl.DEFAULT_BUDGETS["predprey"], False)
    explore = golden_runs["explore", 2]
    assert (explore.success, explore.score) == (False, 0.67)


# ---------------------------------------------------------------------------
# batched APF


def _apf_force_reference(pos, goal, obstacles, params, meter, recip_table):
    """One agent, one scalar LPU call per term: the loop apf_force batches."""
    sat = 2.0 * params.v_max
    err_c = np.clip(goal - pos, -sat, sat)
    if meter is None:
        force = params.k_att * err_c
    else:
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
        if meter is None:
            u = 1.0 / dc
            force = force + params.k_rep * (u - u0) * u * u * direction
        else:
            u = meter.nfe(recip_table, dc)
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


@pytest.mark.parametrize("model,bits", [(None, 5), ("digital", 4), ("tdms", 5),
                                        ("hdms", 3), ("hdms", 8)])
def test_batched_apf_matches_per_agent_calls(model, bits):
    params = default_params()
    pot = sl.PotentialParams()
    recip = sl.nfe_build("recip", (sl.D_FLOOR, 2.0), 32)
    rng = np.random.default_rng(7)
    near = far = False
    for n, m in ((1, 0), (2, 1), (6, 0), (12, 3)):
        pos, goal, obstacles = _random_swarm(rng, max(n, 2), m)
        pos, goal, obstacles = pos[:n], goal[:n], obstacles[:n]
        d = np.hypot(*(pos[:, None, :] - obstacles).transpose(2, 0, 1))
        near |= bool((d < sl.D_FLOOR).any())
        far |= bool((d >= pot.d0).any())
        meters = [None if model is None else sl.LpuMeter(bits, params, model) for _ in range(3)]
        batched = sl.apf_force(pos, goal, obstacles, pot, meters[0], recip)
        one_by_one = np.concatenate([
            sl.apf_force(pos[i:i + 1], goal[i:i + 1], obstacles[i:i + 1], pot, meters[1], recip)
            for i in range(n)])
        reference = np.stack([
            _apf_force_reference(pos[i], goal[i], obstacles[i], pot, meters[2], recip)
            for i in range(n)])
        assert batched.shape == (n, 2)
        assert batched.tobytes() == one_by_one.tobytes() == reference.tobytes()
        if model is not None:
            assert meters[0].energy_pj == meters[1].energy_pj == meters[2].energy_pj
            assert meters[0].macs == meters[1].macs == meters[2].macs > 0
    assert near and far


def test_apf_agent_on_obstacle_raises():
    pot = sl.PotentialParams()
    meter = sl.LpuMeter(5, default_params())
    recip = sl.nfe_build("recip", (sl.D_FLOOR, 2.0), 32)
    pos = np.array([[1.0, 1.0], [4.0, 4.0]])
    obstacles = np.array([[[4.0, 4.0], [1.0, 1.0]], [[1.0, 1.0], [9.0, 9.0]]])
    with pytest.raises(ValueError, match="obstacle"):
        sl.apf_force(pos, pos + 1.0, obstacles, pot, meter, recip)
    with pytest.raises(ValueError, match="obstacle"):
        sl.apf_force(pos, pos + 1.0, obstacles, pot)


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


@pytest.mark.parametrize("a,b", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5),
                                 (np.array([0.5, np.nan]), np.ones(2)),
                                 (np.inf, -np.inf)])
def test_meter_rejects_non_finite_operands(a, b):
    meter = sl.LpuMeter(5, default_params())
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        meter.mul(a, b, 1.0, 1.0)
    assert (meter.energy_pj, meter.macs) == (0.0, 0)


def test_meter_saturates_huge_finite_operands():
    meter = sl.LpuMeter(5, default_params())
    with np.errstate(over="ignore"):
        assert meter.mul(1e308, 1e308, 1.0, 1.0) == 1.0
    assert meter.macs == 1


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

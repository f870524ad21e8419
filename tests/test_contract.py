"""The boundary contract: every public constructor and entry point either runs,
or raises ValueError or TypeError with a message that names the field.

One hypothesis test feeds single fields of the configs and entry points
bools, strings, None, NaN, infinities, negative numbers, floats for ints and
ordinary numbers. A value that is accepted must run a short job: a few MACs,
training or policy steps, or swarm steps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgesim import macmodel as mm
from edgesim import qnav
from edgesim import swarmlab as sl
from edgesim.macmodel import Operand
from edgesim.stochsyn import Lfsr

PARAMS = mm.default_params()
ARENA = qnav.Arena.from_text("######\n#....#\n#....#\n#..#.#\n#S...#\n######")
NET = qnav.init_network(Lfsr(0xACE1), horizon=4)[0]
# a short run: 3 steps of one episode, training from the second step on
SHORT = dict(episodes=1, max_steps=3, batch_size=2, capacity=4, convergence_window=1)


def _walls(width, height):
    return frozenset((x, y) for x in range(width) for y in range(height)
                     if x in (0, width - 1) or y in (0, height - 1))


def _mac(params=PARAMS, x=Operand(3), bits=5):
    return mm.mac("hdms", x, Operand(2), 0, params, bits)


def _train(**fields):
    return qnav.run_training(ARENA, qnav.TrainConfig(**(SHORT | fields)), 0xACE1)


def _policy(**kwargs):
    return qnav.run_policy(**(dict(arena=ARENA, net=NET, eps=0.1, steps=3, seed=7) | kwargs))


def _train_step(actions):
    x = np.full((1, 3), 0.5)
    return qnav.train_step(NET, (x, np.array([actions]), np.zeros(1), x, np.zeros(1, bool)),
                           qnav.TrainConfig())


def _swarm(workload="path", n_agents=3, potential=None, **fields):
    if potential is not None:
        fields["potential"] = sl.PotentialParams(**potential)
    return sl.run_workload(sl.make_scenario(workload, n_agents, **fields), budget=2)


def _arena(width=6, height=6, start=(1, 1)):
    sized = all(isinstance(v, (int, np.integer)) for v in (width, height))
    walls = _walls(width, height) if sized else _walls(6, 6)
    return qnav.run_training(qnav.Arena(width, height, walls, start),
                             qnav.TrainConfig(**SHORT), 0xACE1)


def _meter(bits=5, params=PARAMS, model="hdms", a=0.5, b=-0.25, a_range=1.0, b_range=2.0):
    return sl.LpuMeter(bits, params, model).mul(a, b, a_range, b_range)


def _calibrate(index, value):
    anchor = [3, 0.22, 0.19]
    anchor[index] = value
    try:
        return mm.calibrate_energy((tuple(anchor), (8, 1.76, 0.69)))
    except mm.CalibrationError:
        return None  # the fit ran and found the anchors infeasible


def _params_file(path, key, value):
    mm.save_energy_params(PARAMS, path)
    text = path.read_text().replace(f"{key} = {getattr(PARAMS, key)!r}", f"{key} = {value}")
    path.write_text(text)
    return _mac(params=mm.load_energy_params(path))


def _scenario_file(path, key, value):
    path.write_text(f"[scenario]\nworkload = explore\nn_agents = 3\nseed = 1\n{key} = {value}\n"
                    "\n[agents]\n1.0 1.0\n2.0 2.0\n3.0 3.0\n")
    return sl.run_workload(sl.load_scenario(path), budget=2)


def _fields(entry, names, run):
    """Cases of ``entry`` whose errors name the field itself."""
    return {(entry, f): (f, lambda v, f=f: run(f, v)) for f in names}


# (entry point, field) -> (the text its errors must contain, run(value[, path]))
CASES = {
    **_fields("EnergyParams", ("c_d2", "c_d0", "e_0", "e_cyc", "e_tr", "e_sa", "v_supply",
                               "v_ref"), lambda f, v: _mac(params=replace(PARAMS, **{f: v}))),
    **_fields("Operand", ("magnitude",), lambda f, v: _mac(x=Operand(v))),
    **_fields("Operand", ("sign",), lambda f, v: _mac(x=Operand(3, v))),
    ("check_bits", "bits"): ("bit width", lambda v: _mac(bits=v)),
    ("quantize", "x"): ("quantize input", lambda v: mm.quantize(v, 4, 1.0)),
    ("quantize", "value_range"): ("quantize range", lambda v: mm.quantize(0.5, 4, v)),
    ("dequantize", "value_range"): ("dequantize range",
                                    lambda v: mm.dequantize(Operand(3), 4, v)),
    ("calibrate_energy", "anchor bits"): ("bit width", lambda v: _calibrate(0, v)),
    ("calibrate_energy", "anchor energy"): ("anchor energy", lambda v: _calibrate(1, v)),
    ("calibrate_energy", "anchor ratio"): ("anchor ratio", lambda v: _calibrate(2, v)),
    **_fields("QNetwork", ("w1", "w2", "horizon"), lambda f, v: _policy(
        net=qnav.QNetwork(**(dict(w1=NET.w1, w2=NET.w2) | {f: v})))),
    **_fields("Scratchpad", ("capacity",), lambda f, v: qnav.Scratchpad(v).push(
        NET.w1[0], 1, 0.0, NET.w1[1], False)),
    **_fields("TrainConfig", ("alpha", "gamma", "eps_start", "eps_end", "eps_decay", "drop_p",
                              "convergence_frac", "episodes", "max_steps", "batch_size",
                              "capacity", "convergence_window", "stochastic"),
              lambda f, v: _train(**{f: v})),
    # a float or bool action array passed the range check as 1.0 or True
    ("train_step", "actions"): ("action", _train_step),
    **_fields("run_policy", ("arena", "net", "eps", "drop_p", "steps", "stochastic", "seed"),
              lambda f, v: _policy(**{f: v})),
    **_fields("run_training", ("arena", "cfg", "seed"), lambda f, v: qnav.run_training(
        **(dict(arena=ARENA, cfg=qnav.TrainConfig(**SHORT), seed=0xACE1) | {f: v}))),
    **_fields("PotentialParams", ("k_att", "k_rep", "d0", "v_max"),
              lambda f, v: _swarm(potential={f: v})),
    **_fields("SwarmConfig", ("workload", "n_agents", "extent", "seed", "model",
                              "goal_tolerance", "slot_tolerance", "collision_radius",
                              "predator_policy"), lambda f, v: _swarm(**{f: v})),
    ("SwarmConfig", "explore seed"): ("seed", lambda v: _swarm("explore", seed=v)),
    **_fields("run_workload", ("scn", "budget", "params"), lambda f, v: sl.run_workload(
        **(dict(scn=sl.make_scenario("formation", 2), budget=2) | {f: v}))),
    **_fields("Arena", ("width", "height"), lambda f, v: _arena(**{f: v})),
    **_fields("Arena", ("start",), lambda f, v: _arena(start=(v, 1))),
    ("Lfsr", "state"): ("LFSR state", lambda v: Lfsr(v).advance(3).words(3)),
    ("LpuMeter", "bits"): ("bit width", lambda v: _meter(bits=v)),
    **_fields("LpuMeter", ("params", "model"), lambda f, v: _meter(**{f: v})),
    **{("LpuMeter.mul", f): ("LPU", lambda v, f=f: _meter(**{f: v}))
       for f in ("a", "b", "a_range", "b_range")},
    # list operands have their elements checked one by one
    ("LpuMeter.mul", "list a"): ("LPU", lambda v: _meter(a=[0.5, v], b=[0.25, -0.5])),
    ("LpuMeter.nfe", "x"): ("LPU", lambda v: sl.LpuMeter(5, PARAMS).nfe(v)),
    # wrong shapes, filled with the value (SHAPE_CASES)
    ("QNetwork", "w1 shape"): ("w1", lambda v: _policy(
        net=qnav.QNetwork(w1=np.full((NET.w1.shape[0], 2), v), w2=NET.w2))),
    ("QNetwork", "w2 shape"): ("w2", lambda v: _policy(
        net=qnav.QNetwork(w1=NET.w1, w2=np.full((qnav.N_ACTIONS, NET.w1.shape[0] - 1), v)))),
    ("LpuMeter.mul", "list lengths"): ("LPU", lambda v: _meter(a=[0.5, v], b=[0.25])),
    **{("load_energy_params", f): (f, lambda v, path, f=f: _params_file(path, f, v))
       for f in ("e_tr", "v_supply")},
    **{("load_scenario", f): (f, lambda v, path, f=f: _scenario_file(path, f, v))
       for f in ("n_agents", "seed", "extent", "k_rep", "goal_tolerance", "model")},
}
FILE_ENTRIES = ("load_energy_params", "load_scenario")

VALUES = st.one_of(
    st.sampled_from([True, False, np.bool_(True), "1", "", None, math.nan, math.inf, -math.inf,
                     -1, -0.5, 0, 1, 2.0, np.float64(3.0), np.int64(3), 0.5, 4, 7]),
    st.integers(-2, 8),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(sorted(CASES)), value=VALUES)
def test_entry_points_run_or_name_the_field(tmp_path, case, value):
    entry, field = case
    text, run = CASES[case]
    try:
        run(value, tmp_path / "in.txt") if entry in FILE_ENTRIES else run(value)
    except (ValueError, TypeError) as exc:
        assert text in str(exc), f"{entry}: {field}={value!r} raised {exc!r}"



# a whole object of the wrong type failed on its first attribute access with
# AttributeError, naming nothing; each of these runs here, not only when sampled
@pytest.mark.parametrize("case", [("run_training", "arena"), ("run_training", "cfg"),
                                  ("run_policy", "arena"), ("run_policy", "net"),
                                  ("run_workload", "scn"), ("QNetwork", "w1"),
                                  ("QNetwork", "w2")], ids=".".join)
@pytest.mark.parametrize("value", ["x", {}, [0.5, 0.25], None], ids=repr)
def test_wrong_objects_name_the_field(case, value):
    text, run = CASES[case]
    with pytest.raises(TypeError, match=f"{text} must be"):
        run(value)


# a wrong shape raises whatever fills it; a real, finite fill reaches the
# shape check itself
# an action array of floats or bools passed the range check as 1.0 or True,
# then failed inside numpy with IndexError
@pytest.mark.parametrize("value", [1.0, True], ids=repr)
def test_non_integer_actions_name_the_field(value):
    text, run = CASES[("train_step", "actions")]
    with pytest.raises(TypeError, match=f"{text}s must be integers"):
        run(value)


SHAPE_CASES = [("QNetwork", "w1 shape"), ("QNetwork", "w2 shape"), ("LpuMeter.mul", "list lengths")]


@pytest.mark.parametrize("case", SHAPE_CASES, ids=".".join)
@pytest.mark.parametrize("value", [0.5, 0, -1.0])
def test_wrong_shapes_name_the_field(case, value):
    text, run = CASES[case]
    with pytest.raises(ValueError, match=text):
        run(value)

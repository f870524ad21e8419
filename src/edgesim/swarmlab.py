"""Unified swarm compute paradigm on the HD-MS MAC substrate.

Nonlinear terms go through piecewise-linear function tables (NFE); multiplies
go through the quantized LPU at a bit width set by the swarm size. Four
template workloads run on top: APF path planning, circle-slot pattern
formation, predator-prey pursuit, and cooperative map exploration. Agent
state (positions, maps) lives in wide registers; only the MAC operands are
quantized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from edgesim import macmodel as mm
from edgesim.macmodel import EnergyParams
from edgesim.stochsyn import Lfsr

WORKLOADS = ("path", "formation", "predprey", "explore")
PREDATOR_POLICIES = ("qlearn", "random")

MIN_AGENTS = 2
MAX_AGENTS = 20


def bitwidth_for_swarm(n: int) -> int:
    """Linear agents-to-precision map: 2 agents run at 3 bits, 20 at 8."""
    if not MIN_AGENTS <= n <= MAX_AGENTS:
        raise ValueError(f"swarm size must be in [{MIN_AGENTS}, {MAX_AGENTS}], got {n}")
    return int(round(3 + 5 * (n - MIN_AGENTS) / (MAX_AGENTS - MIN_AGENTS)))


# ---------------------------------------------------------------------------
# nonlinear function evaluator


_NFE_FUNCS = {
    "exp_neg": lambda x: np.exp(-x),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "sine": np.sin,
    "recip": lambda x: 1.0 / x,
}


@dataclass(frozen=True)
class NfeTable:
    """Chord (endpoint-interpolating) piecewise-linear table on a uniform grid.

    Evaluation lerps between stored endpoint values, so adjoining segments
    agree exactly at breakpoints.
    """

    fid: str
    breakpoints: np.ndarray
    values: np.ndarray

    @property
    def lo(self) -> float:
        return float(self.breakpoints[0])

    @property
    def hi(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def n_segments(self) -> int:
        return len(self.breakpoints) - 1


def nfe_build(fid: str, domain: tuple, n_segments: int = 32) -> NfeTable:
    if fid not in _NFE_FUNCS:
        raise ValueError(f"unknown NFE function {fid!r}; expected one of {sorted(_NFE_FUNCS)}")
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ValueError(f"domain must satisfy lo < hi, got {domain}")
    if n_segments < 2:
        raise ValueError("need at least 2 segments")
    if fid == "recip" and lo <= 0 <= hi:
        raise ValueError("recip domain must exclude 0")
    breaks = np.linspace(lo, hi, n_segments + 1)
    return NfeTable(fid=fid, breakpoints=breaks, values=_NFE_FUNCS[fid](breaks))


def nfe_eval(table: NfeTable, x):
    """Piecewise-linear evaluation; inputs saturate at the domain ends."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, table.lo, table.hi)
    seg = np.clip(np.searchsorted(table.breakpoints, xc, side="right") - 1,
                  0, table.n_segments - 1)
    t0 = table.breakpoints[seg]
    t1 = table.breakpoints[seg + 1]
    u = (xc - t0) / (t1 - t0)
    out = table.values[seg] * (1.0 - u) + table.values[seg + 1] * u
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# linear processing unit


class LpuMeter:
    """Quantized-multiply front end with running energy/MAC accounting.

    Scalars or arrays go in as reals with explicit ranges, are quantized to
    the meter's bit width, multiplied exactly on the integer MAC model, and
    come back dequantized. NFE evaluations are charged one MAC each (the
    interpolation multiply).

    Each ``mul``/``nfe`` call adds its summed energy to ``energy_pj``; given a
    ``ledger`` list it appends its per-element energies there instead, for a
    batching caller to ``charge`` in the order of the calls it stands for.
    """

    def __init__(self, bits: int, params: EnergyParams, model: str = "hdms"):
        if model not in mm.MODELS:
            raise ValueError(f"unknown MAC model {model!r}; expected one of {mm.MODELS}")
        self.bits = mm.check_bits(bits)
        self.params = params
        self.model = model
        self.energy_pj = 0.0
        self.macs = 0
        self._full = (1 << self.bits) - 1

    def _quant(self, v, rng):
        v = np.asarray(v, dtype=float)
        mag = np.minimum((np.abs(v) / rng * self._full + 0.5).astype(np.int64), self._full)
        return mag, np.where(v < 0, -1, 1)

    def energy(self, x_mag, w_mag) -> np.ndarray:
        """Per-element MAC energies (pJ) of the meter's model for broadcast operand magnitudes."""
        if self.model == "digital":
            return np.full(np.broadcast(x_mag, w_mag).shape, mm.digital_energy(self.bits, self.params))
        if self.model == "tdms":
            return np.asarray(mm.tdms_energy(x_mag * w_mag, self.bits, self.params))
        return np.asarray(mm.hdms_energy(x_mag, w_mag, self.bits, self.params))

    def _charge(self, e, ledger):
        if ledger is None:
            self.energy_pj += float(e.sum())
            self.macs += e.size
        else:
            ledger.append(e)

    def charge(self, call_pj, macs: int) -> None:
        """Add per-call energies to ``energy_pj`` one at a time, in order.

        A plain left-to-right sum, so the total equals that of the same calls
        charged one by one (``ndarray.sum`` is pairwise and would differ).
        """
        self.energy_pj = float(np.add.accumulate(np.concatenate(([self.energy_pj], call_pj)))[-1])
        self.macs += int(macs)

    def mul(self, a, b, a_range: float, b_range: float, ledger: list | None = None):
        """Elementwise quantized multiply; returns dequantized floats.

        Operands must be finite: out-of-range values saturate, NaN and
        infinities raise ``ValueError``.
        """
        # one ufunc pass in the common case; a sum that overflows from huge
        # finite operands is told apart by testing them one by one
        if not np.isfinite(np.add(a, b)).all() and not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("LPU operands must be finite")
        ma, sa = self._quant(np.clip(a, -a_range, a_range), a_range)
        mb, sb = self._quant(np.clip(b, -b_range, b_range), b_range)
        self._charge(self.energy(ma, mb), ledger)
        scale = (a_range * b_range) / float(self._full * self._full)
        out = (sa * sb * ma * mb) * scale
        return out if out.ndim else float(out)

    def nfe(self, table: NfeTable, x, ledger: list | None = None):
        """Metered table lookup: one interpolation MAC per evaluated element."""
        out = nfe_eval(table, x)
        mid = np.full(np.asarray(x).size, self._full // 2)
        self._charge(self.energy(mid, mid), ledger)
        return out


# ---------------------------------------------------------------------------
# artificial potential field


@dataclass(frozen=True)
class PotentialParams:
    k_att: float = 1.0
    k_rep: float = 0.15
    d0: float = 1.5
    v_max: float = 0.2

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be positive")


# repulsion distances below this floor saturate (the 1/d table domain end)
D_FLOOR = 0.1


def apf_force(pos, goal, obstacles, params: PotentialParams,
              meter: LpuMeter | None = None, recip_table: NfeTable | None = None):
    """Attractive-plus-repulsive potential field forces of n agents, each clamped to v_max.

    ``pos`` and ``goal`` are (n, 2); ``obstacles`` is (n, K, 2), row i
    listing the points that repel agent i, and only points closer than d0
    push. With a meter attached, multiplies run on the quantized LPU and the
    1/d terms go through the reciprocal NFE table. Forces, energy and MACs
    are exactly those of n single-agent calls made in agent order.
    """
    pos = np.asarray(pos, dtype=float)
    goal = np.asarray(goal, dtype=float)
    obstacles = np.asarray(obstacles, dtype=float)
    n = len(pos)
    sat = 2.0 * params.v_max
    err_c = np.clip(goal - pos, -sat, sat)
    if meter is None:
        att = params.k_att * err_c
    else:
        ledger = []
        att = meter.mul(params.k_att, err_c, max(params.k_att, 1.0), sat, ledger)

    delta = pos[:, None, :] - obstacles
    d = np.hypot(delta[..., 0], delta[..., 1])
    if np.any(d == 0.0):
        raise ValueError("agent sits exactly on an obstacle point (singular field)")
    # pushing pairs, agent-major and in list order; a NaN distance pushes,
    # so a NaN point is not skipped silently
    rows, cols = np.nonzero(~(d >= params.d0))
    counts = np.bincount(rows, minlength=n)
    first = np.cumsum(counts) - counts  # index of each agent's first pair
    d = d[rows, cols]
    dc = np.maximum(d, D_FLOOR)
    u0 = 1.0 / params.d0
    direction = delta[rows, cols] / d[:, None]
    if meter is None:
        u = 1.0 / dc
        push = (params.k_rep * (u - u0) * u * u)[:, None] * direction
    else:
        # metered pushes saturate at the f_cap quantizer range; the exact
        # formula is unbounded and relies on the final v_max clamp alone
        f_cap = 4.0 * params.v_max
        u = meter.nfe(recip_table, dc, ledger)
        uu = meter.mul(u, u, 1.0 / D_FLOOR, 1.0 / D_FLOOR, ledger)
        mag = meter.mul(params.k_rep * (u - u0), uu, 10.0, (1.0 / D_FLOOR) ** 2, ledger)
        push = meter.mul(mag[:, None], direction, f_cap, 1.0, ledger)
        # agent i's calls in order: attraction, then per pushing pair the
        # lookup, u*u, the magnitude and the 2-element push
        e_att, e_nfe, e_uu, e_mag, e_push = ledger
        pair_pj = np.stack([e_nfe, e_uu, e_mag, e_push[:, 0] + e_push[:, 1]], axis=1)
        meter.charge(np.insert(pair_pj.ravel(), 4 * first, e_att[:, 0] + e_att[:, 1]),
                     sum(e.size for e in ledger))

    # sum each agent's terms left to right: attraction, then its pushes in list order
    terms = np.zeros((n, 1 + counts.max(initial=0), 2))
    terms[:, 0] = att
    terms[rows, 1 + np.arange(len(rows)) - first[rows]] = push
    force = np.add.accumulate(terms, axis=1)[np.arange(n), counts]

    norm = np.hypot(force[:, 0], force[:, 1])
    fast = norm > params.v_max
    force[fast] = force[fast] * (params.v_max / norm[fast])[:, None]
    return force


# ---------------------------------------------------------------------------
# scenarios and configuration


@dataclass
class SwarmConfig:
    workload: str
    n_agents: int
    extent: float = 10.0
    seed: int = 0xACE1
    model: str = "hdms"
    potential: PotentialParams = field(default_factory=PotentialParams)
    goal_tolerance: float = 0.3
    slot_tolerance: float = 0.1
    collision_radius: float = 0.25
    predator_policy: str = "qlearn"

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; expected one of {WORKLOADS}")
        if not MIN_AGENTS <= self.n_agents <= MAX_AGENTS:
            raise ValueError(f"n_agents must be in [{MIN_AGENTS}, {MAX_AGENTS}]")
        if self.model not in mm.MODELS:
            raise ValueError(f"unknown MAC model {self.model!r}; expected one of {mm.MODELS}")
        if self.predator_policy not in PREDATOR_POLICIES:
            raise ValueError(f"unknown predator policy {self.predator_policy!r}; "
                             f"expected one of {PREDATOR_POLICIES}")
        for name in ("extent", "goal_tolerance", "slot_tolerance", "collision_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def bits(self) -> int:
        return bitwidth_for_swarm(self.n_agents)

    @property
    def grid_size(self) -> int:
        return max(4, int(round(self.extent)))


@dataclass
class Scenario:
    config: SwarmConfig
    agents: np.ndarray              # (n, 2) start positions (floats; grids use ints)
    goals: np.ndarray | None = None
    obstacles: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    slots: np.ndarray | None = None


def circle_slots(n: int, extent: float) -> np.ndarray:
    """Evenly spaced formation slots on a circle, assigned by agent index."""
    center = extent / 2.0
    radius = extent * 0.3
    angles = 2 * np.pi * np.arange(n) / n
    return np.stack([center + radius * np.cos(angles),
                     center + radius * np.sin(angles)], axis=1)


def make_scenario(workload: str, n_agents: int, seed: int = 0xACE1,
                  extent: float = 10.0, **cfg_kwargs) -> Scenario:
    """Deterministic seeded scenario with sane separations: goals are
    matched to the nearest free agent (keeps routes from swapping head-on)
    and static obstacles stay clear of the straight agent-goal lines."""
    config = SwarmConfig(workload=workload, n_agents=n_agents, extent=extent,
                         seed=seed, **cfg_kwargs)
    rng = np.random.default_rng(seed)
    if workload in ("path", "formation"):
        margin = 0.08 * extent
        agents = _scatter(rng, n_agents, margin, extent - margin, min_sep=1.2)
        if workload == "path":
            goals = _scatter(rng, n_agents, margin, extent - margin, min_sep=1.2)
            goals = _assign_goals(agents, goals)
            obstacles = _scatter(rng, 2, 0.3 * extent, 0.7 * extent, min_sep=1.5,
                                 keep_clear=(agents, goals, 0.9))
            return Scenario(config=config, agents=agents, goals=goals, obstacles=obstacles)
        return Scenario(config=config, agents=agents, slots=circle_slots(n_agents, extent))
    g = config.grid_size
    cells = rng.permutation(g * g)[: n_agents]
    agents = np.stack([cells % g, cells // g], axis=1).astype(float)
    return Scenario(config=config, agents=agents)


def _assign_goals(agents, goals):
    """Greedy nearest matching of goals to agents."""
    remaining = list(range(len(goals)))
    ordered = np.empty_like(goals)
    for i, a in enumerate(agents):
        j = min(remaining, key=lambda k: float(np.hypot(*(goals[k] - a))))
        ordered[i] = goals[j]
        remaining.remove(j)
    return ordered


def _segment_distance(p, a, b):
    """Distance from point p to segment a-b."""
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.hypot(*(a + t * ab - p)))


def _scatter(rng, n, lo, hi, min_sep, max_tries=200, keep_clear=None):
    pts = []
    for _ in range(n):
        for _ in range(max_tries):
            p = rng.uniform(lo, hi, size=2)
            if any(np.hypot(*(p - q)) < min_sep for q in pts):
                continue
            if keep_clear is not None:
                starts, ends, clearance = keep_clear
                if any(_segment_distance(p, s, e) < clearance
                       for s, e in zip(starts, ends)):
                    continue
            pts.append(p)
            break
        else:
            pts.append(rng.uniform(lo, hi, size=2))
    return np.array(pts)


# --- scenario files: [scenario] key = value, then coordinate sections ------

_COORD_SECTIONS = ("agents", "goals", "obstacles", "slots")
# optional [scenario] keys besides the seed: SwarmConfig and PotentialParams fields
_CONFIG_KEYS = {"extent": float, "model": str, "goal_tolerance": float, "slot_tolerance": float,
                "collision_radius": float, "predator_policy": str}
_POTENTIAL_KEYS = tuple(f.name for f in fields(PotentialParams))


def save_scenario(scn: Scenario, path) -> None:
    cfg = scn.config
    lines = ["[scenario]", f"workload = {cfg.workload}", f"n_agents = {cfg.n_agents}",
             f"seed = 0x{cfg.seed:04X}"]
    lines += [f"{k} = {getattr(cfg, k)}" for k in _CONFIG_KEYS]
    lines += [f"{k} = {getattr(cfg.potential, k)}" for k in _POTENTIAL_KEYS]
    for name, arr in (("agents", scn.agents), ("goals", scn.goals),
                      ("obstacles", scn.obstacles), ("slots", scn.slots)):
        if arr is None or len(arr) == 0:
            continue
        lines.append("")
        lines.append(f"[{name}]")
        for xy in np.asarray(arr):
            lines.append(f"{float(xy[0])!r} {float(xy[1])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_scenario(path) -> Scenario:
    """Read a scenario file; keys it does not set keep their SwarmConfig and
    PotentialParams defaults."""
    section = None
    keys = {}
    coords = {name: [] for name in _COORD_SECTIONS}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section != "scenario" and section not in _COORD_SECTIONS:
                raise ValueError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if section == "scenario":
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in ("workload", "n_agents", "seed", *_CONFIG_KEYS, *_POTENTIAL_KEYS):
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            keys[key] = val.strip()
        elif section in _COORD_SECTIONS:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'x y', got {raw!r}")
            coords[section].append((float(parts[0]), float(parts[1])))
        else:
            raise ValueError(f"{path}:{lineno}: content before any section header")
    for req in ("workload", "n_agents"):
        if req not in keys:
            raise ValueError(f"{path}: missing required key {req!r}")
    config = SwarmConfig(
        workload=keys["workload"],
        n_agents=int(keys["n_agents"]),
        seed=int(keys.get("seed", "0xACE1"), 0),
        potential=PotentialParams(**{k: float(keys[k]) for k in _POTENTIAL_KEYS if k in keys}),
        **{k: parse(keys[k]) for k, parse in _CONFIG_KEYS.items() if k in keys},
    )
    agents = np.array(coords["agents"]) if coords["agents"] else None
    if agents is None:
        raise ValueError(f"{path}: scenario lists no agents")
    return Scenario(
        config=config,
        agents=agents,
        goals=np.array(coords["goals"]) if coords["goals"] else None,
        obstacles=np.array(coords["obstacles"]) if coords["obstacles"] else np.zeros((0, 2)),
        slots=np.array(coords["slots"]) if coords["slots"] else None,
    )


# ---------------------------------------------------------------------------
# workload state and stepping


@dataclass
class WorkloadState:
    positions: np.ndarray
    goals: np.ndarray | None = None
    obstacles: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    slots: np.ndarray | None = None
    # grid workloads
    visited: np.ndarray | None = None  # shared boolean map
    prey: tuple | None = None
    qtable: np.ndarray | None = None
    explore_w: np.ndarray | None = None
    lfsr: Lfsr | None = None
    collided: bool = False
    caught: bool = False
    prey_moves: bool = False


@dataclass(frozen=True)
class StepMetrics:
    actions: int
    energy_pj: float
    macs: int


@dataclass
class WorkloadMetrics:
    workload: str
    n_agents: int
    bits: int
    steps: int
    actions: int
    energy_pj: float
    success: bool
    score: float

    def row(self):
        return (self.workload, self.n_agents, self.bits, self.steps, self.actions,
                float(self.energy_pj), self.success, float(self.score))


def init_state(scn: Scenario) -> WorkloadState:
    cfg = scn.config
    if cfg.workload == "path":
        if scn.goals is None:
            raise ValueError("path scenario needs goals")
        return WorkloadState(positions=scn.agents.astype(float).copy(),
                             goals=scn.goals.astype(float),
                             obstacles=np.asarray(scn.obstacles, dtype=float))
    if cfg.workload == "formation":
        slots = scn.slots if scn.slots is not None else circle_slots(cfg.n_agents, cfg.extent)
        return WorkloadState(positions=scn.agents.astype(float).copy(),
                             slots=np.asarray(slots, dtype=float))
    if cfg.workload == "predprey":
        pos = scn.agents.astype(int).copy()
        prey = tuple(pos[-1])
        n_states = 8 * 2  # bearing sector x adjacency
        return WorkloadState(positions=pos[:-1], prey=prey,
                             qtable=np.zeros((n_states, 4)),
                             lfsr=Lfsr(cfg.seed))
    # explore
    pos = scn.agents.astype(int).copy()
    g = cfg.grid_size
    visited = np.zeros((g, g), dtype=bool)
    for p in pos:
        visited[p[0], p[1]] = True
    return WorkloadState(positions=pos, visited=visited,
                         explore_w=np.ones(4), lfsr=Lfsr(cfg.seed))


GRID_MOVES = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _grid_clip(p, g):
    return (min(max(p[0], 0), g - 1), min(max(p[1], 0), g - 1))


def _bearing_state(dx, dy, dist):
    sector = int(np.floor((math.atan2(dy, dx) % (2 * math.pi)) / (math.pi / 4))) % 8
    return sector * 2 + (1 if dist <= 2 else 0)


# predator-prey learning constants
PRED_ALPHA = 0.3
PRED_GAMMA = 0.8
PRED_EPS = 0.15
Q_RANGE = 8.0


def _quantize_qvalues(q, bits):
    full = (1 << bits) - 1
    mag = np.minimum((np.abs(q) / Q_RANGE * full + 0.5).astype(np.int64), full)
    return np.sign(q) * mag / full * Q_RANGE


def workload_step(state: WorkloadState, cfg: SwarmConfig, meter: LpuMeter,
                  tables: dict):
    """Advance every agent one synchronous step; returns (state, StepMetrics)."""
    macs0, energy0 = meter.macs, meter.energy_pj
    if cfg.workload == "path":
        actions = _step_path(state, cfg, meter, tables)
    elif cfg.workload == "formation":
        actions = _step_formation(state, cfg, meter, tables)
    elif cfg.workload == "predprey":
        actions = _step_predprey(state, cfg, meter)
    elif cfg.workload == "explore":
        actions = _step_explore(state, cfg, meter)
    else:
        raise ValueError(f"unknown workload {cfg.workload!r}")
    return state, StepMetrics(actions=actions,
                              energy_pj=meter.energy_pj - energy0,
                              macs=meter.macs - macs0)


def _step_path(state, cfg, meter, tables):
    _step_apf(state, state.goals, state.obstacles, cfg, meter, tables)
    _check_collisions(state, cfg)
    return len(state.positions)


def _step_formation(state, cfg, meter, tables):
    _step_apf(state, state.slots, np.zeros((0, 2)), cfg, meter, tables)
    return len(state.positions)


def _step_apf(state, targets, obstacles, cfg, meter, tables):
    """Move every agent by its APF force toward its target, repelled by the
    other agents (in index order) and then by the static obstacles."""
    pos = state.positions
    n = len(pos)
    j = np.arange(n - 1)
    others = pos[j + (j >= np.arange(n)[:, None])]  # row i skips agent i
    repel = np.concatenate([others, np.broadcast_to(obstacles, (n, *obstacles.shape))], axis=1)
    state.positions = pos + apf_force(pos, targets, repel, cfg.potential, meter, tables["recip"])


def _check_collisions(state, cfg):
    pos = state.positions
    delta = pos[:, None, :] - np.concatenate([pos, state.obstacles])
    d = np.hypot(delta[..., 0], delta[..., 1])
    np.fill_diagonal(d, np.inf)  # an agent does not collide with itself
    if np.any(d < cfg.collision_radius):
        state.collided = True


def _step_predprey(state, cfg, meter):
    g = cfg.grid_size
    prey = state.prey
    # predators move every step; the prey every other one
    for i in range(len(state.positions)):
        px, py = state.positions[i]
        dx, dy = prey[0] - px, prey[1] - py
        dist = abs(dx) + abs(dy)
        s = _bearing_state(dx, dy, dist)
        if cfg.predator_policy == "random":
            a, state.lfsr = state.lfsr.randint(4)
        else:
            u, state.lfsr = state.lfsr.uniform()
            if u < PRED_EPS:
                a, state.lfsr = state.lfsr.randint(4)
            else:
                a = int(np.argmax(state.qtable[s]))
        mv = GRID_MOVES[a]
        nx, ny = _grid_clip((px + mv[0], py + mv[1]), g)
        new_dist = abs(prey[0] - nx) + abs(prey[1] - ny)
        caught = (nx, ny) == prey
        if cfg.predator_policy != "random":
            reward = 5.0 if caught else float(dist - new_dist)
            # one MAC: discounted bootstrap product
            q_next = meter.mul(PRED_GAMMA, float(state.qtable[_bearing_state(
                prey[0] - nx, prey[1] - ny, new_dist)].max()), 1.0, Q_RANGE)
            target = reward if caught else reward + q_next
            state.qtable[s, a] += PRED_ALPHA * (target - state.qtable[s, a])
            state.qtable[s] = _quantize_qvalues(state.qtable[s], cfg.bits)
        state.positions[i] = (nx, ny)
        if caught:
            state.caught = True
    if not state.caught and state.prey_moves:
        # flee along the largest gap to the nearest predator
        best, best_gap = prey, -1.0
        for mv in GRID_MOVES:
            cand = _grid_clip((prey[0] + mv[0], prey[1] + mv[1]), g)
            gap = min(abs(cand[0] - p[0]) + abs(cand[1] - p[1]) for p in state.positions)
            if gap > best_gap:
                best, best_gap = cand, gap
        state.prey = best
        if any(tuple(p) == state.prey for p in state.positions):
            state.caught = True
    state.prey_moves = not state.prey_moves
    return len(state.positions) + 1


EXPLORE_EPS = 0.15
EXPLORE_ALPHA = 0.05
EXPLORE_WINDOW = 2  # half-width of the frontier-count window


def _step_explore(state, cfg, meter):
    g = cfg.grid_size
    area = (2 * EXPLORE_WINDOW + 1) ** 2
    for i in range(len(state.positions)):
        px, py = state.positions[i]
        feats = np.zeros(4)
        for a, mv in enumerate(GRID_MOVES):
            cx, cy = _grid_clip((px + mv[0], py + mv[1]), g)
            x0, x1 = max(cx - EXPLORE_WINDOW, 0), min(cx + EXPLORE_WINDOW + 1, g)
            y0, y1 = max(cy - EXPLORE_WINDOW, 0), min(cy + EXPLORE_WINDOW + 1, g)
            feats[a] = np.count_nonzero(~state.visited[x0:x1, y0:y1])
        u, state.lfsr = state.lfsr.uniform()
        if u < EXPLORE_EPS:
            a, state.lfsr = state.lfsr.randint(4)
        elif feats.max() == 0:
            # local window exhausted: head for the nearest frontier cell
            frontier = np.argwhere(~state.visited)
            if len(frontier) == 0:
                a = 0
            else:
                dists = np.abs(frontier[:, 0] - px) + np.abs(frontier[:, 1] - py)
                tx, ty = frontier[int(np.argmin(dists))]
                if abs(tx - px) >= abs(ty - py):
                    a = 0 if tx > px else 2
                else:
                    a = 1 if ty > py else 3
        else:
            qvals = meter.mul(state.explore_w, feats / area, 2.0, 1.0)
            a = int(np.argmax(qvals))
            # linear value update on the chosen direction's weight
            nx, ny = _grid_clip((px + GRID_MOVES[a][0], py + GRID_MOVES[a][1]), g)
            reward = 1.0 if not state.visited[nx, ny] else 0.0
            state.explore_w[a] += EXPLORE_ALPHA * (reward - qvals[a]) * feats[a] / area
        nx, ny = _grid_clip((px + GRID_MOVES[a][0], py + GRID_MOVES[a][1]), g)
        state.positions[i] = (nx, ny)
        state.visited[nx, ny] = True
    return len(state.positions)


# ---------------------------------------------------------------------------
# success criteria and the driver


def workload_success(state: WorkloadState, cfg: SwarmConfig) -> tuple[bool, float]:
    """Returns (success, score). Score is the task's own figure of merit."""
    if cfg.workload == "path":
        errs = np.hypot(*(state.positions - state.goals).T)
        return bool(np.all(errs < cfg.goal_tolerance) and not state.collided), float(errs.max())
    if cfg.workload == "formation":
        errs = np.hypot(*(state.positions - state.slots).T)
        mean_err = float(errs.mean())
        return mean_err < cfg.slot_tolerance, mean_err
    if cfg.workload == "predprey":
        return state.caught, 0.0
    coverage = float(state.visited.mean())
    return coverage >= 0.9, coverage


DEFAULT_BUDGETS = {"path": 400, "formation": 400, "predprey": 400, "explore": 500}


def run_workload(scn: Scenario, params: EnergyParams | None = None,
                 budget: int | None = None) -> WorkloadMetrics:
    """Iterate workload_step until the success criterion or the budget.

    Deterministic given the scenario seed; budget exhaustion reports
    success=False rather than raising.
    """
    cfg = scn.config
    if params is None:
        params = mm.default_params()
    if budget is None:
        budget = DEFAULT_BUDGETS[cfg.workload]
    meter = LpuMeter(cfg.bits, params, cfg.model)
    tables = {"recip": nfe_build("recip", (D_FLOOR, 2.0), 32)}
    state = init_state(scn)
    actions = 0
    steps = 0
    success, score = workload_success(state, cfg)
    while not success and steps < budget:
        state, sm = workload_step(state, cfg, meter, tables)
        actions += sm.actions
        steps += 1
        success, score = workload_success(state, cfg)
        if cfg.workload == "predprey":
            score = float(steps)
    if cfg.workload == "predprey" and not success:
        score = float(budget)
    return WorkloadMetrics(workload=cfg.workload, n_agents=cfg.n_agents, bits=cfg.bits,
                           steps=steps, actions=actions, energy_pj=meter.energy_pj,
                           success=success, score=score)

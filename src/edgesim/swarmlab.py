"""Unified swarm compute paradigm on the HD-MS MAC substrate.

The nonlinear function evaluator (NFE) is one piecewise-linear table, the
APF repulsion's 1/d; multiplies go through the quantized LPU at a bit width
set by the swarm size. Four template workloads run on top: APF path
planning, circle-slot pattern formation, predator-prey pursuit, and
cooperative map exploration. Agent state (positions, maps) lives in wide
registers; only the MAC operands are quantized.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from edgesim import macmodel as mm
from edgesim.macmodel import EnergyParams
from edgesim.stochsyn import Lfsr, epsilon_greedy, to_randint, to_uniform

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


# repulsion distances saturate at the table's domain ends
D_FLOOR = 0.1
D_CEIL = 2.0
RECIP_SEGMENTS = 32
# the one 1/d table every APF call reads: a chord (endpoint-
# interpolating) table on a uniform grid, so adjoining segments agree
# exactly at breakpoints; it is shared by every run, so it must not change
RECIP_BREAKS = np.linspace(D_FLOOR, D_CEIL, RECIP_SEGMENTS + 1)
RECIP_VALUES = 1.0 / RECIP_BREAKS
RECIP_BREAKS.flags.writeable = RECIP_VALUES.flags.writeable = False


def nfe_recip(x):
    """Piecewise-linear 1/x, a float for 0-d input; inputs saturate at [D_FLOOR, D_CEIL]."""
    # np.minimum(np.maximum()) is np.clip's values (NaN propagates) at less
    # per-call cost
    xc = np.minimum(np.maximum(np.asarray(x, dtype=float), D_FLOOR), D_CEIL)
    seg = np.minimum(np.maximum(np.searchsorted(RECIP_BREAKS, xc, side="right") - 1, 0),
                     RECIP_SEGMENTS - 1)
    t0 = RECIP_BREAKS[seg]
    t1 = RECIP_BREAKS[seg + 1]
    u = (xc - t0) / (t1 - t0)
    out = RECIP_VALUES[seg] * (1.0 - u) + RECIP_VALUES[seg + 1] * u
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# linear processing unit


class LpuMeter(mm.Meter):
    """The LPU's ops on a ``macmodel.Meter``: quantized multiplies and 1/d
    lookups, each lookup one interpolation MAC at ``nfe_pj``. ``mul`` and
    ``nfe`` check their operands before they charge; the workload steps call
    only the bodies, which take magnitudes already quantized and check
    nothing: ``mul_mags`` (lists) and ``mul_mag_arrays`` (arrays, uncharged).
    """

    def __init__(self, bits: int, params: EnergyParams, model: str = "hdms"):
        super().__init__(bits, model, params)
        self._full = (1 << self.bits) - 1
        # an NFE lookup's interpolation MAC, at mid-scale operands
        self.nfe_pj = self._table[self._full // 2, self._full // 2]

    def mul(self, a, b, a_range: float, b_range: float):
        """Elementwise quantized multiply of floats, lists or arrays; charges
        its MACs and returns dequantized floats (a float for 0-d operands).

        Operands must be finite: out-of-range values saturate, NaN and
        infinities raise ``ValueError``, and so do lists of unequal length.
        Ranges must be positive and finite. A range or operand that is not a
        real number (a bool included) raises ``TypeError``; so does any
        element of a list operand that is not, whatever the other operand is.
        """
        mm.check_real(a_range, "LPU range", "(0, inf)")
        mm.check_real(b_range, "LPU range", "(0, inf)")
        for operand in (a, b):
            if isinstance(operand, list):
                # numpy would take a bool among numbers as a number
                for v in operand:
                    if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
                        raise TypeError(f"LPU operands must be real numbers, got {v!r}")
        # numpy would broadcast a 1-element list
        if isinstance(a, list) and isinstance(b, list) and len(a) != len(b):
            raise ValueError(f"LPU operand lists differ in length: {len(a)} != {len(b)}")
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype.kind not in "iuf" or b.dtype.kind not in "iuf":
            raise TypeError(f"LPU operands must be real numbers, got {a.dtype} and {b.dtype}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("LPU operands must be finite")
        a_mags = mm.quantize_mags(a, self.bits, a_range)
        b_mags = mm.quantize_mags(b, self.bits, b_range)
        self._charge(self.energy(a_mags, b_mags))
        return self.mul_mag_arrays(a_mags, b_mags, np.less(a, 0) != np.less(b, 0),
                                   a_range, b_range)

    def mul_mag_arrays(self, a_mags, b_mags, negative, a_range: float, b_range: float):
        """``mul``'s products of broadcastable operands already quantized at
        the meter's width; charges nothing and checks nothing.

        ``a_mags``/``b_mags`` are ``quantize_mags`` magnitudes (or ``quantize_mag``
        ints), ``negative`` the products' signs (``np.less(a, 0) != np.less(b,
        0)``, a bool array or a bool) and the ranges the ones the magnitudes
        were quantized against. ``energy(a_mags, b_mags)`` is what ``mul``
        charges for them.
        """
        scale = (a_range * b_range) / float(self._full * self._full)
        product = a_mags * b_mags  # exact integer product, scaled once
        out = np.where(negative, -product, product) * scale
        return out if out.ndim else float(out)

    def mul_mags(self, x_mags: list, y_mags: list, negative: list,
                 x_range: float, y_range: float) -> list:
        """Multiply and charge operands already quantized at the meter's width.

        ``x_mags``/``y_mags`` are ``quantize_mag`` magnitudes of equal-length
        operand lists, ``negative[i]`` is product i's sign (``(x < 0) != (y <
        0)``) and the ranges are the ones the magnitudes were quantized
        against. Returns ``mul``'s dequantized floats as a list and charges
        ``mul``'s MACs and their energies summed left to right, which is
        ``mul``'s ``ndarray.sum`` below 8 elements (numpy sums pairwise in
        blocks of 8 beyond that); nothing is checked here.
        """
        table = self._table
        scale = (x_range * y_range) / float(self._full * self._full)
        out = []
        energy = 0.0
        for mx, my, neg in zip(x_mags, y_mags, negative):
            energy += table.item(mx, my)
            product = mx * my  # exact integer product, scaled once
            out.append((-product if neg else product) * scale)
        self.energy_pj += energy
        self.macs += len(out)
        return out

    def nfe(self, x):
        """Metered ``nfe_recip`` lookup: one interpolation MAC per evaluated element.

        NaN raises ``ValueError`` and a non-real (a bool included)
        ``TypeError``, before anything is charged; infinities saturate.
        """
        x = np.asarray(x)
        if x.dtype.kind not in "iuf":
            raise TypeError(f"LPU operands must be real numbers, got {x.dtype}")
        if np.isnan(x).any():
            raise ValueError("LPU operands must be finite")
        out = nfe_recip(x)
        self._charge(np.full(x.size, self.nfe_pj))
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
            mm.check_real(getattr(self, f.name), f.name, "(0, inf)")


def apf_force(pos, goal, obstacles, params: PotentialParams, meter: LpuMeter):
    """Attractive-plus-repulsive potential field forces of n agents, each clamped to v_max.

    ``pos`` and ``goal`` are (n, 2); ``obstacles`` is (n, K, 2), row i
    listing the points that repel agent i, and only points closer than d0
    push. Multiplies run on the meter's quantized LPU and each 1/d term is
    one lookup in the 1/d table (``nfe_recip``), saturating at D_FLOOR and
    D_CEIL; a lookup is priced at ``LpuMeter.nfe_pj``, the interpolation MAC
    that ``LpuMeter.nfe`` charges, without a call of ``nfe``. Forces, energy
    and MACs are exactly those of n single-agent calls made in agent order.
    """
    pos = np.asarray(pos, dtype=float)
    goal = np.asarray(goal, dtype=float)
    obstacles = np.asarray(obstacles, dtype=float)
    n = len(pos)
    bits = meter.bits
    sat = 2.0 * params.v_max
    # Each LPU operand is quantized once and multiplied on the meter's numpy
    # body, which checks and charges nothing: the ranges are constants that
    # PotentialParams has checked, and the two checks that can fire are
    # made here, before the meter is charged. Clipped, err_c is finite
    # unless a goal or position is NaN (an infinite goal saturates).
    err_c = np.minimum(np.maximum(goal - pos, -sat), sat)
    if np.isnan(err_c).any():
        raise ValueError("LPU operands must be finite")
    # k_att > 0, so the attraction's sign is err_c's
    k_range = max(params.k_att, 1.0)
    k_mag = mm.quantize_mag(params.k_att, bits, k_range)
    err_mags = mm.quantize_mags(err_c, bits, sat)
    att = meter.mul_mag_arrays(k_mag, err_mags, err_c < 0, k_range, sat)

    delta = pos[:, None, :] - obstacles
    d = np.hypot(delta[..., 0], delta[..., 1])
    if (d == 0.0).any():
        raise ValueError("agent sits exactly on an obstacle point (singular field)")
    # pushing pairs, agent-major and in list order; a NaN distance pushes,
    # so a NaN point is not skipped silently
    rows, cols = np.nonzero(~(d >= params.d0))
    counts = np.bincount(rows, minlength=n)
    first = np.cumsum(counts) - counts  # index of each agent's first pair
    d = d[rows, cols]
    # a pushing distance is below d0 or NaN; finite and nonzero, it makes u,
    # u*u, the magnitude and the direction below all finite
    if np.isnan(d).any():
        raise ValueError("LPU operands must be finite")
    dc = np.maximum(d, D_FLOOR)
    u0 = 1.0 / params.d0
    direction = delta[rows, cols] / d[:, None]
    # pushes saturate at the f_cap quantizer range before the v_max clamp
    f_cap = 4.0 * params.v_max
    u = nfe_recip(dc)
    u_range = 1.0 / D_FLOOR
    uu_range = u_range ** 2
    u_mags = mm.quantize_mags(u, bits, u_range)
    # a square is never negative: (u < 0) != (u < 0)
    uu = meter.mul_mag_arrays(u_mags, u_mags, False, u_range, u_range)
    rep = params.k_rep * (u - u0)
    rep_mags = mm.quantize_mags(rep, bits, 10.0)
    uu_mags = mm.quantize_mags(uu, bits, uu_range)
    # u*u >= 0, so the magnitude's sign is rep's
    mag = meter.mul_mag_arrays(rep_mags, uu_mags, rep < 0, 10.0, uu_range)
    mag_mags = mm.quantize_mags(mag, bits, f_cap)[:, None]
    dir_mags = mm.quantize_mags(direction, bits, 1.0)
    push = meter.mul_mag_arrays(mag_mags, dir_mags, (mag < 0)[:, None] != (direction < 0),
                                f_cap, 1.0)
    # charge in call order, as n single-agent calls would: agent i's
    # 2-element attraction follows the 4 calls of each pushing pair of the
    # agents before it, and each pair's calls are the lookup, u*u, the
    # magnitude and the 2-element push, 5 MACs (a 2-element sum is the same
    # in either order)
    agents = np.arange(n)
    att_at = agents + 4 * first
    pair_pj = np.empty((len(rows), 4))
    pair_pj[:, 0] = meter.nfe_pj
    pair_pj[:, 1] = meter.energy(u_mags, u_mags)
    pair_pj[:, 2] = meter.energy(rep_mags, uu_mags)
    pair_pj[:, 3] = meter.energy(mag_mags, dir_mags).sum(axis=1)
    is_pair = np.ones(n + pair_pj.size, dtype=bool)
    is_pair[att_at] = False
    call_pj = np.empty(len(is_pair))
    call_pj[att_at] = meter.energy(k_mag, err_mags).sum(axis=1)
    call_pj[is_pair] = pair_pj.ravel()
    meter.charge(call_pj, 2 * n + 5 * len(rows))

    # sum each agent's terms left to right: attraction, then its pushes in list order
    terms = np.zeros((n, 1 + counts.max(initial=0), 2))
    terms[:, 0] = att
    terms[rows, 1 + np.arange(len(rows)) - first[rows]] = push
    force = np.add.accumulate(terms, axis=1)[agents, counts]

    norm = np.hypot(force[:, 0], force[:, 1])
    fast = norm > params.v_max
    force[fast] = force[fast] * (params.v_max / norm[fast])[:, None]
    return force


# ---------------------------------------------------------------------------
# scenarios and configuration


@dataclass(frozen=True)
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
        mm.check_choice(self.workload, "workload", WORKLOADS)
        mm.check_int(self.n_agents, "n_agents", MIN_AGENTS, MAX_AGENTS)
        mm.check_int(self.seed, "seed", 0)
        # the grid workloads start their LFSR at the seed
        if self.workload in ("predprey", "explore"):
            mm.check_int(self.seed, f"seed of the {self.workload} workload (an LFSR state)",
                         1, 0xFFFF)
        mm.check_model(self.model)
        mm.check_choice(self.predator_policy, "predator_policy", PREDATOR_POLICIES)
        mm.check_type(self.potential, "potential", PotentialParams)
        for name in ("extent", "goal_tolerance", "slot_tolerance", "collision_radius"):
            mm.check_real(getattr(self, name), name, "(0, inf)")
        # each grid agent, the prey included, starts on a cell of its own
        if self.workload in ("predprey", "explore") and self.grid_size ** 2 < self.n_agents:
            raise ValueError(f"extent {self.extent!r} gives a {self.grid_size}x{self.grid_size} "
                             f"grid, fewer cells than n_agents = {self.n_agents}")

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


def make_scenario(workload: str, n_agents: int, **cfg_kwargs) -> Scenario:
    """Deterministic scenario, seeded by ``config.seed``, with sane separations:
    goals are matched to the nearest free agent (keeps routes from swapping
    head-on) and static obstacles stay clear of the straight agent-goal lines."""
    config = SwarmConfig(workload=workload, n_agents=n_agents, **cfg_kwargs)
    rng = np.random.default_rng(config.seed)
    extent = config.extent
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


def _scatter(rng, n, lo, hi, min_sep, keep_clear=None):
    pts = []
    for _ in range(n):
        for _ in range(200):  # tries before a point is placed unchecked
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
    for name in _COORD_SECTIONS:
        arr = getattr(scn, name)
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
        n_agents=mm.parse_field(keys["n_agents"], int, "n_agents"),
        seed=mm.parse_field(keys.get("seed", "0xACE1"), lambda text: int(text, 0), "seed"),
        potential=PotentialParams(
            **{k: mm.parse_field(keys[k], float, k) for k in _POTENTIAL_KEYS if k in keys}),
        **{k: mm.parse_field(keys[k], parse, k) for k, parse in _CONFIG_KEYS.items() if k in keys},
    )
    # sections the file leaves empty keep their Scenario defaults
    arrays = {name: np.array(pts) for name, pts in coords.items() if pts}
    if "agents" not in arrays:
        raise ValueError(f"{path}: scenario lists no agents")
    for name in ("agents", "goals", "slots"):
        if name in arrays and len(arrays[name]) != config.n_agents:
            raise ValueError(f"{path}: [{name}] lists {len(arrays[name])} points, "
                             f"not n_agents = {config.n_agents}")
    return Scenario(config=config, **arrays)


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
    frontier: np.ndarray | None = None  # per cell: unvisited cells in its window
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
    # every cell starts with its whole clipped window unvisited
    idx = np.arange(g)
    span = np.minimum(idx + EXPLORE_WINDOW + 1, g) - np.maximum(idx - EXPLORE_WINDOW, 0)
    state = WorkloadState(positions=pos, visited=np.zeros((g, g), dtype=bool),
                          frontier=np.outer(span, span), explore_w=np.ones(4),
                          lfsr=Lfsr(cfg.seed))
    for p in pos:
        _visit(state, p[0], p[1])
    return state


GRID_MOVES = ((1, 0), (0, 1), (-1, 0), (0, -1))


@lru_cache(maxsize=16)
def _grid_neighbours(g: int) -> np.ndarray:
    """(g, g, 4) flat index ``x * g + y`` of the cell one GRID_MOVES step from
    (x, y), clipped to the grid."""
    x, y = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    moves = np.array(GRID_MOVES)
    nx = np.clip(x[..., None] + moves[:, 0], 0, g - 1)
    ny = np.clip(y[..., None] + moves[:, 1], 0, g - 1)
    table = nx * g + ny
    table.flags.writeable = False
    return table


def _bearing_state(dx, dy, dist):
    sector = int(np.floor((math.atan2(dy, dx) % (2 * math.pi)) / (math.pi / 4))) % 8
    return sector * 2 + (1 if dist <= 2 else 0)


# predator-prey learning constants
PRED_ALPHA = 0.3
PRED_GAMMA = 0.8
PRED_EPS = 0.15
Q_RANGE = 8.0


def _quantize_qvalues(q, bits):
    # np.sign keeps -0.0 for entries that round to 0 from below
    return np.sign(q) * mm.quantize_mags(q, bits, Q_RANGE) / ((1 << bits) - 1) * Q_RANGE


def workload_step(state: WorkloadState, cfg: SwarmConfig, meter: LpuMeter) -> StepMetrics:
    """Advance every agent one synchronous step, updating ``state`` in place."""
    macs0, energy0 = meter.macs, meter.energy_pj
    actions = _STEPS[cfg.workload](state, cfg, meter)
    return StepMetrics(actions=actions, energy_pj=meter.energy_pj - energy0,
                       macs=meter.macs - macs0)


def _step_path(state, cfg, meter):
    _step_apf(state, state.goals, cfg, meter)
    _check_collisions(state, cfg)
    return len(state.positions)


def _step_formation(state, cfg, meter):
    _step_apf(state, state.slots, cfg, meter)
    return len(state.positions)


@lru_cache(maxsize=16)
def _other_agents(n: int) -> np.ndarray:
    """(n, n - 1) index of the agents other than i, in index order, on row i."""
    j = np.arange(n - 1)
    table = j + (j >= np.arange(n)[:, None])
    table.flags.writeable = False
    return table


def _step_apf(state, targets, cfg, meter):
    """Move every agent by its APF force toward its target, repelled by the
    other agents (in index order) and then by the static obstacles."""
    pos = state.positions
    obstacles = state.obstacles
    n = len(pos)
    others = pos[_other_agents(n)]
    repel = np.concatenate([others, np.broadcast_to(obstacles, (n, *obstacles.shape))], axis=1)
    state.positions = pos + apf_force(pos, targets, repel, cfg.potential, meter)


def _check_collisions(state, cfg):
    pos = state.positions
    delta = pos[:, None, :] - np.concatenate([pos, state.obstacles])
    d = np.hypot(delta[..., 0], delta[..., 1])
    np.fill_diagonal(d, np.inf)  # an agent does not collide with itself
    if np.any(d < cfg.collision_radius):
        state.collided = True


def _step_predprey(state, cfg, meter):
    g = cfg.grid_size
    nbrs = _grid_neighbours(g)
    prey = state.prey
    n = len(state.positions)
    bits = meter.bits
    gamma_mag = [mm.quantize_mag(PRED_GAMMA, bits, 1.0)]
    # each predator draws one LFSR word, or two for an epsilon-greedy random move
    words = state.lfsr.words(2 * n).tolist()
    used = 0
    # predators move every step; the prey every other one
    for i in range(n):
        px, py = state.positions[i].tolist()
        dx, dy = prey[0] - px, prey[1] - py
        dist = abs(dx) + abs(dy)
        s = _bearing_state(dx, dy, dist)
        if cfg.predator_policy == "random":
            a = to_randint(words[used], 4)
            used += 1
        else:
            a, drawn = epsilon_greedy(state.qtable[s], PRED_EPS, words[used:used + 2])
            used += drawn
        nx, ny = divmod(nbrs.item(px, py, a), g)
        new_dist = abs(prey[0] - nx) + abs(prey[1] - ny)
        caught = (nx, ny) == prey
        if cfg.predator_policy != "random":
            reward = 5.0 if caught else float(dist - new_dist)
            # one MAC: discounted bootstrap product; gamma > 0, so its sign is q_max's
            q_max = float(state.qtable[_bearing_state(prey[0] - nx, prey[1] - ny,
                                                      new_dist)].max())
            if not math.isfinite(q_max):
                raise ValueError("LPU operands must be finite")
            q_next = meter.mul_mags(gamma_mag, [mm.quantize_mag(q_max, bits, Q_RANGE)],
                                    [q_max < 0], 1.0, Q_RANGE)[0]
            target = reward if caught else reward + q_next
            state.qtable[s, a] += PRED_ALPHA * (target - state.qtable[s, a])
            state.qtable[s] = _quantize_qvalues(state.qtable[s], cfg.bits)
        state.positions[i] = (nx, ny)
        if caught:
            state.caught = True
    state.lfsr = state.lfsr.advance(used)
    if not state.caught and state.prey_moves:
        # flee along the largest gap to the nearest predator
        best, best_gap = prey, -1.0
        for cell in nbrs[prey[0], prey[1]]:
            cand = divmod(int(cell), g)
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
EXPLORE_AREA = (2 * EXPLORE_WINDOW + 1) ** 2  # cells in a window
EXPLORE_W_RANGE = 2.0  # LPU range of the direction weights; features use 1.0


@lru_cache(maxsize=16)
def _feature_mags(bits: int) -> tuple:
    """LPU magnitude of each explore feature: entry f is ``quantize_mag(f /
    EXPLORE_AREA, bits, 1.0)``, the feature of a window with f unvisited
    cells, for f = 0..EXPLORE_AREA."""
    return tuple(mm.quantize_mag(f / EXPLORE_AREA, bits, 1.0) for f in range(EXPLORE_AREA + 1))


def _visit(state, x, y):
    """Mark (x, y) visited; on a first visit it leaves the unvisited count of
    every window that holds it (the cells within EXPLORE_WINDOW of it)."""
    if not state.visited.item(x, y):
        state.visited[x, y] = True
        w = EXPLORE_WINDOW
        state.frontier[max(x - w, 0):x + w + 1, max(y - w, 0):y + w + 1] -= 1


def _step_explore(state, cfg, meter):
    g = cfg.grid_size
    nbrs = _grid_neighbours(g)
    frontier = state.frontier.reshape(-1)  # flat views, indexed by nbrs
    visited = state.visited.reshape(-1)
    positions = state.positions.tolist()
    weights = state.explore_w.tolist()
    # the LPU keeps its operands quantized: the 4 weights here, once a step,
    # and weights[a] again after each update; features read their magnitudes
    # from a table. A feature is >= 0 (never -0.0), so a product's sign is
    # its weight's. The weights are checked finite once, here: an update
    # moves a weight by at most EXPLORE_ALPHA * (1 + EXPLORE_W_RANGE), since
    # magnitudes saturate, the reward is 0 or 1 and a feature is at most 1.
    bits = meter.bits
    if not all(map(math.isfinite, weights)):
        raise ValueError("LPU operands must be finite")
    w_mags = [mm.quantize_mag(w, bits, EXPLORE_W_RANGE) for w in weights]
    w_neg = [w < 0 for w in weights]
    feat_mags = _feature_mags(bits)
    # each agent draws one LFSR word, or two for an epsilon-greedy random move
    words = state.lfsr.words(2 * len(positions)).tolist()
    used = 0
    for i, (px, py) in enumerate(positions):
        row = nbrs[px, py]
        feats = frontier[row].tolist()
        cells = row.tolist()
        u = to_uniform(words[used])
        used += 1
        if u < EXPLORE_EPS:
            a = to_randint(words[used], 4)
            used += 1
        elif max(feats) == 0:
            # local window exhausted: head for the nearest frontier cell
            frontier_cells = np.argwhere(~state.visited)
            if len(frontier_cells) == 0:
                a = 0
            else:
                dists = np.abs(frontier_cells[:, 0] - px) + np.abs(frontier_cells[:, 1] - py)
                tx, ty = frontier_cells[int(np.argmin(dists))].tolist()
                if abs(tx - px) >= abs(ty - py):
                    a = 0 if tx > px else 2
                else:
                    a = 1 if ty > py else 3
        else:
            qvals = meter.mul_mags(w_mags, [feat_mags[f] for f in feats], w_neg,
                                   EXPLORE_W_RANGE, 1.0)
            a = qvals.index(max(qvals))  # the first maximum, as argmax
            # linear value update on the chosen direction's weight
            reward = 0.0 if visited.item(cells[a]) else 1.0
            weights[a] += EXPLORE_ALPHA * (reward - qvals[a]) * feats[a] / EXPLORE_AREA
            w = weights[a]
            w_mags[a] = mm.quantize_mag(w, bits, EXPLORE_W_RANGE)
            w_neg[a] = w < 0
        nx, ny = divmod(cells[a], g)
        positions[i] = [nx, ny]
        _visit(state, nx, ny)
    state.positions[:] = positions
    state.explore_w[:] = weights
    state.lfsr = state.lfsr.advance(used)
    return len(positions)


_STEPS = {"path": _step_path, "formation": _step_formation,
          "predprey": _step_predprey, "explore": _step_explore}


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
    # an exact count divided once: the float visited.mean() gives, at a fifth
    # of its per-step cost
    coverage = float(np.count_nonzero(state.visited) / state.visited.size)
    return coverage >= 0.9, coverage


DEFAULT_BUDGETS = {"path": 400, "formation": 400, "predprey": 400, "explore": 500}


def run_workload(scn: Scenario, params: EnergyParams | None = None,
                 budget: int | None = None) -> WorkloadMetrics:
    """Iterate workload_step until the success criterion or the budget.

    Deterministic given the scenario seed; budget exhaustion reports
    success=False rather than raising.
    """
    cfg = mm.check_type(scn, "scn", Scenario).config
    if params is None:
        params = mm.default_params()
    budget = DEFAULT_BUDGETS[cfg.workload] if budget is None else mm.check_int(budget, "budget", 0)
    meter = LpuMeter(cfg.bits, params, cfg.model)
    state = init_state(scn)
    actions = 0
    steps = 0
    success, score = workload_success(state, cfg)
    while not success and steps < budget:
        actions += workload_step(state, cfg, meter).actions
        steps += 1
        success, score = workload_success(state, cfg)
    if cfg.workload == "predprey":
        score = float(steps)  # steps to the catch, or the whole budget
    return WorkloadMetrics(workload=cfg.workload, n_agents=cfg.n_agents, bits=cfg.bits,
                           steps=steps, actions=actions, energy_pj=meter.energy_pj,
                           success=success, score=score)

"""Q-learning autonomous-exploration workload on the MAC energy models.

A robot with three quantized depth rays explores a walled grid arena. A
3-16-4 action-value network runs on the modeled MAC hardware (quantized
sign-magnitude weights, energy metered per MAC); training keeps float
shadow weights and re-quantizes after every semi-gradient step. All
randomness (weight init, exploration, replay sampling, drop-connect)
comes from one LFSR stream, so runs are bit-reproducible from the seed.

The network never sees raw depths, and a run never moves the robot through
``apply_action``: ``_pose_tables`` tabulates, once per (arena, horizon),
every pose's proximity operands (the integer inputs of the quantized forward
pass), their float scaling (the shadow network's inputs) and its (pose,
action) transitions, and a run tracks its pose as one flat row index.

A training run keeps its network in place rather than as a ``QNetwork``:
one flat float buffer of both layers, updated by ``_update`` (the body of
``train_step``), and the signed and magnitude integer buffers that
``_quantize`` refills from it after each update and ``_forward`` reads. Each
buffer has fixed per-layer views, so nothing is rebuilt per step; a
``QNetwork`` is made only for the trace, from a copy of the float buffer.

``_forward`` is the integer forward pass alone: a step's MAC energy depends
only on its operand magnitudes, so a training run records each step's pose,
masked first-layer magnitudes, hidden activations and output-layer
magnitudes in per-run buffers of at most ``_PRICE_ROWS`` rows, and prices
an episode's steps once, at its end (or each time the rows fill), with
``Meter.rows_pj``: one gather and one row-wise sum per layer, equal bit for
bit to pricing each step by ``Meter.layer_pj`` as ``q_forward`` does.
``run_policy`` prices nothing, and the greedy pick reads the integer output
accumulators (dividing by DEPTH_MAX**2 is monotone and, below 2**24,
one-to-one, so the argmax is the same).

A training run keeps its place in the LFSR stream as an int cursor, the
``slot`` of ``stochsyn``'s stream table. Each step reads one block of words
at the cursor with ``stream_block``, and one block of the run's
``keep_table`` at the same cursor, so both drop-connect masks are slices of
it, with no compare of their own. The step then moves the cursor past the
words it used, modulo the LFSR period. It takes the words in the order of
the per-call draws ``drop_mask``, ``select_action`` and
``Scratchpad.sample``: 48 words for the action mask (stochastic runs only),
one for epsilon plus one more when exploring, ``batch_size`` for the replay
sample once the scratchpad holds a batch, then 48 for the update mask. A run
is therefore bit-identical to making those draws one call at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from edgesim import macmodel as mm
from edgesim.stochsyn import (LFSR_PERIOD, Lfsr, drop_mask, epsilon_greedy, keep_table,
                               masked_weights, stream_block, stream_table, to_randint)

# headings are 45-degree steps counterclockwise from +x
HEADING_VECS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
N_HEADINGS = 8

# actions: forward, turn left, turn right, reverse
N_ACTIONS = 4
_ACTIONS = frozenset(range(N_ACTIONS))

DEPTH_BITS = 6
DEPTH_MAX = (1 << DEPTH_BITS) - 1
# rays relative to heading: -45, 0, +45 degrees
RAY_OFFSETS = (-1, 0, 1)

COLLISION_REWARD = -5.0
NEW_CELL_REWARD = 1.0

# integer hidden activations are rescaled to 6-bit operands by this shift
ACT_SHIFT = 5
# the most a 3-input first-layer accumulator can reach: |a| <= 3 * 63 * 63
_ACC1_MAX = len(RAY_OFFSETS) * DEPTH_MAX * DEPTH_MAX
# the float shadow net mirrors the integer rescale: y = min(GAIN * relu(a), 1)
ACT_GAIN = (DEPTH_MAX * DEPTH_MAX) / float((1 << ACT_SHIFT) * DEPTH_MAX)
# default sensor-conditioning horizon (cells); see proximity()
PROX_HORIZON = 8
HIDDEN_UNITS = 16  # init_network's hidden width
INIT_SCALE = 0.3  # init_network's initial weight range


class ArenaError(ValueError):
    pass


@dataclass(frozen=True)
class Arena:
    """Rectangular cell grid; obstacle set includes the full boundary."""

    width: int
    height: int
    obstacles: frozenset
    start: tuple

    def __post_init__(self):
        # a free cell inside the boundary walls needs at least 3 cells a side
        mm.check_int(self.width, "width", 3)
        mm.check_int(self.height, "height", 3)
        if not isinstance(self.start, tuple) or len(self.start) != 2:
            raise ArenaError(f"start must be an (x, y) pair, got {self.start!r}")
        for coord in self.start:
            mm.check_int(coord, "start")
        if not (0 <= self.start[0] < self.width and 0 <= self.start[1] < self.height):
            raise ArenaError(
                f"start cell {self.start} is outside the {self.width}x{self.height} grid")
        if self.start in self.obstacles:
            raise ArenaError(f"start cell {self.start} is an obstacle")
        for x in range(self.width):
            for y in (0, self.height - 1):
                if (x, y) not in self.obstacles:
                    raise ArenaError(f"boundary cell {(x, y)} must be an obstacle")
        for y in range(self.height):
            for x in (0, self.width - 1):
                if (x, y) not in self.obstacles:
                    raise ArenaError(f"boundary cell {(x, y)} must be an obstacle")

    def is_free(self, cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height and cell not in self.obstacles

    @property
    def free_cells(self) -> int:
        return self.width * self.height - len(self.obstacles)

    @classmethod
    def from_text(cls, text: str) -> "Arena":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows:
            raise ArenaError("empty arena description")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ArenaError("arena rows must all have the same width")
        obstacles = set()
        start = None
        for y, row in enumerate(rows):
            for x, ch in enumerate(row):
                if ch == "#":
                    obstacles.add((x, y))
                elif ch == "S":
                    if start is not None:
                        raise ArenaError("arena has more than one start cell")
                    start = (x, y)
                elif ch != ".":
                    raise ArenaError(f"unexpected arena character {ch!r} at {(x, y)}")
        if start is None:
            raise ArenaError("arena has no start cell 'S'")
        return cls(width=width, height=len(rows), obstacles=frozenset(obstacles), start=start)

    @classmethod
    def from_file(cls, path) -> "Arena":
        return cls.from_text(Path(path).read_text())


DEFAULT_ARENA_TEXT = """\
############
#..........#
#..##......#
#..##......#
#......##..#
#......##..#
#..........#
#..###.....#
#..........#
#.......#..#
#S......#..#
############
"""


def default_arena() -> Arena:
    return Arena.from_text(DEFAULT_ARENA_TEXT)


@dataclass(frozen=True)
class RobotState:
    position: tuple
    heading: int  # index into HEADING_VECS


def sense(arena: Arena, state: RobotState) -> np.ndarray:
    """Quantized cell distance to the first obstacle along the -45/0/+45 rays,
    saturated at the 6-bit max range."""
    out = np.empty(3, dtype=np.int64)
    for i, off in enumerate(RAY_OFFSETS):
        dx, dy = HEADING_VECS[(state.heading + off) % N_HEADINGS]
        x, y = state.position
        dist = 0
        while dist < DEPTH_MAX:
            x += dx
            y += dy
            dist += 1
            if (x, y) in arena.obstacles:
                break
        out[i] = dist if (x, y) in arena.obstacles else DEPTH_MAX
    return out


def apply_action(arena: Arena, state: RobotState, action: int):
    """Returns (new state, collided). Moves into obstacles are refused."""
    if action == 1:
        return RobotState(state.position, (state.heading + 1) % N_HEADINGS), False
    if action == 2:
        return RobotState(state.position, (state.heading - 1) % N_HEADINGS), False
    dx, dy = HEADING_VECS[state.heading]
    if action == 3:
        dx, dy = -dx, -dy
    target = (state.position[0] + dx, state.position[1] + dy)
    if not arena.is_free(target):
        return state, True
    return RobotState(target, state.heading), False


# ---------------------------------------------------------------------------
# quantized action-value network


@dataclass(frozen=True)
class QNetwork:
    """3-16-4 rectifier network; float shadow weights in [-1, 1], executed on
    the MAC models as 6-bit sign-magnitude operands.

    The layers must be real, finite arrays (not bool). A weight outside
    [-1, 1] runs saturated, at the full-scale magnitude DEPTH_MAX, and
    ``train_step`` clips it back into [-1, 1].

    Immutable: training returns a new network, and the layer arrays passed
    in are marked read-only (not copied).
    """

    w1: np.ndarray  # (hidden, 3)
    w2: np.ndarray  # (4, hidden)
    horizon: int = PROX_HORIZON

    def __post_init__(self):
        mm.check_type(self.w1, "w1", np.ndarray)
        mm.check_type(self.w2, "w2", np.ndarray)
        for name, layer in (("w1", self.w1), ("w2", self.w2)):
            if layer.dtype.kind not in "iuf":
                raise TypeError(f"{name} must hold real numbers, got dtype {layer.dtype}")
            if not np.isfinite(layer).all():
                raise ValueError(f"{name} must be finite")
        if self.w1.ndim != 2 or self.w1.shape[1] != len(RAY_OFFSETS):
            raise ValueError(f"w1 must be (hidden, {len(RAY_OFFSETS)}), got {self.w1.shape}")
        if self.w2.shape != (N_ACTIONS, self.w1.shape[0]):
            raise ValueError(f"w2 must be ({N_ACTIONS}, {self.w1.shape[0]}), got {self.w2.shape}")
        # a depth is at least 1, so at a horizon of 1 every proximity reads 0
        mm.check_int(self.horizon, "horizon", 2)
        self.w1.setflags(write=False)
        self.w2.setflags(write=False)

    def quantized(self):
        """Signed integer weights ``(q1, q2)`` and their magnitudes
        ``(m1, m2)`` of both layers, quantized in one pass by ``_quantize``."""
        return _quantized(np.concatenate((self.w1, self.w2), axis=None), self.w1.shape)[2]


def _layers(flat: np.ndarray, shape1) -> tuple[np.ndarray, np.ndarray]:
    """Views of a flat buffer of both layers: the first layer of ``shape1``
    (hidden, 3), then the (N_ACTIONS, hidden) output layer."""
    n1 = shape1[0] * shape1[1]
    return flat[:n1].reshape(shape1), flat[n1:].reshape(N_ACTIONS, shape1[0])


def _quantize(w: np.ndarray, q: np.ndarray, m: np.ndarray) -> None:
    """Quantize the flat float weights ``w`` in place into the signed integer
    weights ``q`` and their magnitudes ``m``. The weights must be finite, as
    a ``QNetwork``'s are and training keeps them, so that every magnitude is
    at most DEPTH_MAX."""
    mm.quantize_mags(w, DEPTH_BITS, 1.0, out=m)
    # -m where w < 0; a -0.0 weight has magnitude 0, so its sign is lost
    q[:] = np.copysign(m, w)


def _quantized(w: np.ndarray, shape1):
    """New signed and magnitude buffers ``q`` and ``m`` of the flat float
    weights ``w``, filled by ``_quantize``, and their layer views
    ``((q1, q2), (m1, m2))``."""
    q, m = np.empty(w.size, dtype=np.int64), np.empty(w.size, dtype=np.int64)
    _quantize(w, q, m)
    return q, m, (_layers(q, shape1), _layers(m, shape1))


def init_network(lfsr: Lfsr, horizon: int = PROX_HORIZON):
    """LFSR-drawn init: first layer uniform in [-INIT_SCALE, INIT_SCALE], output
    layer uniform in [0, INIT_SCALE] (optimistic: untried actions look worth taking)."""
    n1 = HIDDEN_UNITS * 3
    n2 = N_ACTIONS * HIDDEN_UNITS
    u, lfsr = lfsr.uniforms(n1 + n2)
    w1 = (u[:n1] * 2.0 - 1.0) * INIT_SCALE
    w2 = u[n1:] * INIT_SCALE
    return QNetwork(w1=w1.reshape(HIDDEN_UNITS, 3), w2=w2.reshape(N_ACTIONS, HIDDEN_UNITS),
                    horizon=horizon), lfsr


def proximity(s, horizon: int = PROX_HORIZON) -> np.ndarray:
    """Depth readings enter the network as horizon-clipped proximities, so
    wall-adjacent states produce large, well-resolved operands while anything
    farther than the horizon reads zero (there the index-0 argmax tie favors
    going forward)."""
    d = np.asarray(s, dtype=np.int64)
    gain = DEPTH_MAX // max(horizon - 1, 1)
    return np.minimum(np.maximum((horizon - d) * gain, 0), DEPTH_MAX)


def arena_horizon(arena: "Arena") -> int:
    """Conditioning horizon matched to the arena scale, capped at the default."""
    return max(2, min(PROX_HORIZON, max(arena.width, arena.height) - 2))


def q_forward(net: QNetwork, x: np.ndarray, keep=None, model: str = "tdms",
              params: mm.EnergyParams | None = None):
    """Quantized layer-by-layer forward pass on the integer operand row ``x``
    (``proximity`` of a depth reading, or a row of the ``operands`` table of
    ``_pose_tables``), whose entries must lie in [0, DEPTH_MAX].

    Returns (action values as floats on the real-valued scale, energy_pj).
    Hidden integer activations are rectified and right-shifted back into
    6-bit operand range before the second layer. ``keep`` is the first-layer
    drop-connect mask; the output layer always runs clean.
    """
    if params is None:
        params = mm.default_params()
    if not ((x >= 0) & (x <= DEPTH_MAX)).all():
        raise ValueError(f"input operands must be in [0, {DEPTH_MAX}]")
    quant = net.quantized()
    meter = mm.Meter(DEPTH_BITS, model, params)
    acc2, hidden, m1 = _forward(quant, x, keep)
    energy = meter.layer_pj(x, m1) + meter.layer_pj(hidden, quant[1][1])
    return acc2 / float(DEPTH_MAX * DEPTH_MAX), energy


# a layer's accumulator sums one product of two 6-bit magnitudes per input,
# so only a layer with more inputs than this can pass ACC_MAX (the 3-input
# first layer never can)
_SAFE_FAN_IN = mm.ACC_MAX // (DEPTH_MAX * DEPTH_MAX)
# a training run prices its steps in batches of at most this many (run_training)
_PRICE_ROWS = 512


def _activation_table() -> np.ndarray:
    """Read-only hidden activation ``min(max(a, 0) >> ACT_SHIFT, DEPTH_MAX)``,
    as a byte, of every first-layer accumulator ``a`` in [-_ACC1_MAX,
    _ACC1_MAX], at index ``a``: a negative ``a`` reads from the table's end."""
    n = 2 * _ACC1_MAX + 1
    acc = np.arange(n)
    acc[_ACC1_MAX + 1:] -= n
    table = np.minimum(np.maximum(acc, 0) >> ACT_SHIFT, DEPTH_MAX).astype(np.uint8)
    table.flags.writeable = False
    return table


_ACTIVATION = _activation_table()


def _forward(quant, x: np.ndarray, keep):
    """The integer forward pass of the network quantized as ``quant``
    (``QNetwork.quantized``) on an operand row already known to lie in
    [0, DEPTH_MAX]. Returns the output-layer accumulators (the action values
    times DEPTH_MAX**2), the hidden activations and the first-layer weight
    magnitudes after the mask: with ``x`` and the output-layer magnitudes,
    the operands that price the pass."""
    (q1, q2), (m1, _) = quant
    if keep is not None:
        q1 = masked_weights(q1, keep)
        m1 = np.abs(q1)

    hidden = _ACTIVATION[q1 @ x]
    acc2 = q2 @ hidden
    if hidden.size > _SAFE_FAN_IN and (np.abs(acc2) > mm.ACC_MAX).any():
        raise OverflowError("output-layer accumulator overflow")
    return acc2, hidden, m1


def bellman_target(r, q_next_max, gamma: float, terminal):
    """Elementwise Q-learning target: r at terminal steps, else r + gamma * max Q'."""
    if not 0 <= gamma < 1:
        raise ValueError(f"discount must be in [0, 1), got {gamma}")
    return np.where(terminal, r, r + gamma * q_next_max)


def select_action(qvals, eps: float, lfsr: Lfsr):
    """Epsilon-greedy over the action values; ties go to the lowest index."""
    if not 0 <= eps <= 1:
        raise ValueError(f"exploration rate must be in [0, 1], got {eps}")
    action, used = epsilon_greedy(qvals, eps, lfsr.words(2))
    return action, lfsr.advance(used)


class Scratchpad:
    """Bounded experience ring of preallocated arrays, oldest-first eviction.

    ``s`` and ``s_next`` hold the float network inputs of the two states (a
    row of the ``scaled`` table of ``_pose_tables``), the rows ``train_step`` reads.
    """

    def __init__(self, capacity: int):
        self.capacity = mm.check_int(capacity, "capacity", 1)
        self.s = np.zeros((capacity, len(RAY_OFFSETS)))
        self.a = np.zeros(capacity, dtype=np.int64)
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, len(RAY_OFFSETS)))
        self.terminal = np.zeros(capacity, dtype=bool)
        self.pushed = 0

    def __len__(self):
        return min(self.pushed, self.capacity)

    def push(self, s, a: int, r: float, s_next, terminal: bool):
        i = self.pushed % self.capacity
        self.s[i], self.a[i], self.r[i] = s, a, r
        self.s_next[i], self.terminal[i] = s_next, terminal
        self.pushed += 1

    def sample(self, draws):
        """The rows that the 16-bit samples ``draws`` pick, with replacement,
        as (s, a, r, s_next, terminal) arrays: sample ``w`` picks the
        ``to_randint(w, len(self))``-th oldest stored row (0 is the oldest)."""
        if not self.pushed:
            raise ValueError("cannot sample an empty scratchpad")
        n = len(self)
        rows = (self.pushed - n + to_randint(draws, n)) % self.capacity
        return (self.s[rows], self.a[rows], self.r[rows], self.s_next[rows],
                self.terminal[rows])


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.02
    gamma: float = 0.9
    eps_start: float = 0.4
    eps_end: float = 0.12
    eps_decay: float = 0.93  # per episode
    capacity: int = 512
    batch_size: int = 8
    episodes: int = 80
    max_steps: int = 400
    drop_p: float = 0.25
    stochastic: bool = True
    convergence_window: int = 10
    convergence_frac: float = 0.7

    def __post_init__(self):
        for name, interval in (("alpha", "(0, 1]"), ("gamma", "[0, 1)"), ("eps_start", "[0, 1]"),
                               ("eps_end", "[0, 1]"), ("eps_decay", "(0, 1]"), ("drop_p", "[0, 1)"),
                               ("convergence_frac", "(0, 1]")):
            mm.check_real(getattr(self, name), name, interval)
        for name in ("episodes", "max_steps", "batch_size", "capacity", "convergence_window"):
            mm.check_int(getattr(self, name), name, 1)
        if self.capacity < self.batch_size:
            raise ValueError(f"capacity must be >= batch_size {self.batch_size}, got {self.capacity}")
        mm.check_type(self.stochastic, "stochastic", (bool, np.bool_))

    def epsilon(self, episode: int) -> float:
        return max(self.eps_end, self.eps_start * self.eps_decay**episode)


def train_step(net: QNetwork, batch, cfg: TrainConfig, keep=None) -> QNetwork:
    """One semi-gradient minibatch update toward the Bellman targets.

    ``batch`` is the (s, a, r, s_next, terminal) arrays of
    ``Scratchpad.sample``, with float network inputs as the states (rows of
    the ``scaled`` table of ``_pose_tables``). Gradients are taken through the float shadow
    network (straight-through with respect to quantization); the batch-mean
    nudge is computed against the entry weights and applied once, then
    weights re-enter [-1, 1].

    With a first-layer drop-connect mask ``keep``, the prediction path runs on
    the masked weights and first-layer gradients flow only through kept
    connections; targets stay clean.
    """
    _, actions, rewards, _, _ = batch
    if len(actions) == 0:
        raise ValueError("batch must be non-empty")
    # a float or bool action would pass the range check as 1.0 or True
    if actions.dtype.kind not in "iu":
        raise TypeError(f"actions must be integers, got dtype {actions.dtype}")
    if not _ACTIONS.issuperset(actions.tolist()):
        raise ValueError(f"action indices must be in [0, {N_ACTIONS})")
    if not np.isfinite(rewards).all():
        raise ValueError("rewards must be finite")
    w = np.concatenate((net.w1, net.w2), axis=None)
    layers = _layers(w, net.w1.shape)
    _update(w, layers, batch, cfg, keep)
    return QNetwork(*layers, horizon=net.horizon)


def _update(w: np.ndarray, layers, batch, cfg: TrainConfig, keep) -> None:
    """``train_step`` in place, on a batch it does not check (a run's own
    scratchpad rows are valid): ``w`` is the flat float buffer of both layers
    and ``layers`` its ``_layers`` views."""
    xs, actions, rewards, xn, terminal = batch
    n = len(actions)

    w1, w2 = layers
    w1_used = w1 if keep is None else masked_weights(w1, keep)

    # (B, hidden) pre-activations of the states over those of the next
    # states, through one rectifier, in place
    h_both = np.empty((2 * n, w1.shape[0]))
    np.dot(xs, w1_used.T, out=h_both[:n])
    np.dot(xn, w1.T, out=h_both[n:])
    np.maximum(h_both, 0.0, out=h_both)
    h_both *= ACT_GAIN
    np.minimum(h_both, 1.0, out=h_both)
    q_both = h_both @ w2.T                       # (2B, actions)
    h, q = h_both[:n], q_both[:n]
    q_next_max = np.maximum.reduce(q_both[n:], axis=1)
    targets = bellman_target(rewards, q_next_max, cfg.gamma, terminal)
    delta = targets - q[np.arange(n), actions]

    nudge = cfg.alpha / n * delta[:, None]
    d_w2 = np.zeros(w2.shape)
    np.add.at(d_w2, actions, nudge * h)
    # rectifier and saturation gate: 0 < a1 and a1 * ACT_GAIN < 1, read off h
    active = (h > 0.0) & (h < 1.0)
    d_w1 = (nudge * w2[actions] * active * ACT_GAIN).T @ xs
    if keep is not None:
        d_w1 *= keep

    # both deltas read the entry weights, so the layers move only now; then
    # both re-enter [-1, 1] in one clip of the buffer they are views of
    w1 += d_w1
    w2 += d_w2
    w.clip(-1.0, 1.0, out=w)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainingTrace:
    """Per-step and per-episode record of one training run."""

    iteration: np.ndarray
    episode: np.ndarray
    covered_cells: np.ndarray
    reward: np.ndarray
    energy_pj: np.ndarray
    episode_coverage: np.ndarray  # distinct cells covered per finished episode
    converged: bool
    convergence_episode: int  # -1 when the run never converged
    free_cells: int
    net: QNetwork = field(repr=False, default=None)

    def rows(self):
        for row in zip(self.iteration, self.episode, self.covered_cells,
                       self.reward, self.energy_pj):
            yield (int(row[0]), int(row[1]), int(row[2]), float(row[3]), float(row[4]))


def _flat_pose(arena: Arena, position, heading: int) -> int:
    """Row of a pose in ``_pose_tables``. Its cell is ``pose // N_HEADINGS``."""
    x, y = position
    return (x * arena.height + y) * N_HEADINGS + heading


@lru_cache(maxsize=8)
def _pose_tables(arena: Arena, horizon: int) -> tuple[np.ndarray, ...]:
    """Read-only tables of every pose, one row per ``_flat_pose``: the integer
    proximity operands that ``q_forward`` takes, the same values over
    DEPTH_MAX (the float inputs of ``train_step``), and, per action, the next
    flat pose and whether the move collided, as ``apply_action`` gives them.
    Poses on obstacle cells are never reached. The operand range that
    ``q_forward`` checks per call is checked here once."""
    n_poses = arena.width * arena.height * N_HEADINGS
    depths = np.zeros((n_poses, len(RAY_OFFSETS)), dtype=np.int64)
    next_pose = np.zeros((n_poses, N_ACTIONS), dtype=np.int32)
    collided = np.zeros((n_poses, N_ACTIONS), dtype=bool)
    for x in range(arena.width):
        for y in range(arena.height):
            if not arena.is_free((x, y)):
                continue
            for h in range(N_HEADINGS):
                state = RobotState((x, y), h)
                pose = _flat_pose(arena, (x, y), h)
                depths[pose] = sense(arena, state)
                for action in range(N_ACTIONS):
                    new, collided[pose, action] = apply_action(arena, state, action)
                    next_pose[pose, action] = _flat_pose(arena, new.position, new.heading)
    operands = proximity(depths, horizon)
    if not ((operands >= 0) & (operands <= DEPTH_MAX)).all():
        raise ValueError(f"input operands must be in [0, {DEPTH_MAX}]")
    tables = operands, operands.astype(float) / DEPTH_MAX, next_pose, collided
    for table in tables:
        table.flags.writeable = False
    return tables


def run_training(arena: Arena, cfg: TrainConfig, seed: int, model: str = "tdms",
                 params: mm.EnergyParams | None = None) -> TrainingTrace:
    """Train the navigation policy; deterministic given the seed.

    Convergence: first episode whose moving-average coverage (window
    cfg.convergence_window) reaches cfg.convergence_frac of the free cells.
    The run stops there, or at the episode budget with converged=False.
    ``trace.net`` is the network at the end of the strongest window, or the
    last network when the run ends before a full window.

    The network trains in place (module docstring): each update moves the
    float buffer ``w`` and re-quantizes it into the integer buffers that
    ``quant`` views, and ``trace.net`` is built from a copy of ``w``. An
    episode's steps are priced at its end, in batches of at most
    ``_PRICE_ROWS`` (module docstring).
    """
    mm.check_type(arena, "arena", Arena)
    mm.check_type(cfg, "cfg", TrainConfig)
    if params is None:
        params = mm.default_params()
    meter = mm.Meter(DEPTH_BITS, model, params)
    lfsr = Lfsr(mm.check_int(seed, "seed", 1, 0xFFFF))
    net, lfsr = init_network(lfsr, horizon=arena_horizon(arena))
    pad = Scratchpad(cfg.capacity)
    operands, scaled, next_pose, collided = _pose_tables(arena, net.horizon)
    start = _flat_pose(arena, arena.start, 0)
    shape = net.w1.shape
    slot = lfsr.slot
    stream = stream_table()
    keeps = keep_table(cfg.drop_p) if cfg.stochastic else None
    w = np.concatenate((net.w1, net.w2), axis=None)
    layers = _layers(w, shape)
    q, m, quant = _quantized(w, shape)
    m2 = quant[1][1]
    # each step's pose and MAC operand magnitudes (at most DEPTH_MAX, so a
    # byte each), one row per step, priced when an episode ends or the rows
    # fill, whichever comes first
    rows = min(cfg.max_steps, _PRICE_ROWS)
    poses = np.zeros(rows, dtype=np.int64)
    m1_rows = np.zeros((rows,) + shape, dtype=np.uint8)
    hidden_rows = np.zeros((rows, shape[0]), dtype=np.uint8)
    m2_rows = np.zeros((rows,) + m2.shape, dtype=np.uint8)

    def price(k):
        """The energies of the first ``k`` recorded steps."""
        return (meter.rows_pj(operands[poses[:k]], m1_rows[:k])
                + meter.rows_pj(hidden_rows[:k], m2_rows[:k]))

    # stochastic synapses sit on the sensor fan-in (first layer), refreshed
    # every forward pass and every training step
    mask_words = net.w1.size if cfg.stochastic else 0
    # the most a step draws: two masks, two epsilon-greedy words and a batch
    block = 2 * mask_words + 2 + cfg.batch_size
    ep_rows, cov_rows, rew_rows, en_rows = [], [], [], []
    episode_coverage = []
    converged = False
    convergence_episode = -1
    iteration = 0
    free_cells = arena.free_cells
    target_cells = cfg.convergence_frac * free_cells
    best_window = -1.0
    best_w = None

    for ep in range(cfg.episodes):
        pose = start
        visited = bytearray(arena.width * arena.height)
        visited[pose // N_HEADINGS] = 1
        covered = 1
        eps = cfg.epsilon(ep)
        k = 0  # steps recorded and not yet priced
        for _ in range(cfg.max_steps):
            if k == rows:
                en_rows.append(price(k))
                k = 0
            words = stream_block(stream, slot, block)
            keep = None
            if mask_words:
                step_keeps = stream_block(keeps, slot, block)
                keep = step_keeps[:mask_words].reshape(shape)
            # the step's operand magnitudes go into row k, priced later
            acc2, hidden_rows[k], m1_rows[k] = _forward(quant, operands[pose], keep)
            poses[k] = pose
            m2_rows[k] = m2
            k += 1
            action, used = epsilon_greedy(acc2, eps, words[mask_words:])
            used += mask_words
            new_pose = int(next_pose[pose, action])
            reward = 0.0
            if collided[pose, action]:
                reward = COLLISION_REWARD
            elif not visited[new_pose // N_HEADINGS]:
                visited[new_pose // N_HEADINGS] = 1
                covered += 1
                reward = NEW_CELL_REWARD
            terminal = covered == free_cells
            pad.push(scaled[pose], action, reward, scaled[new_pose], terminal)

            if len(pad) >= cfg.batch_size:
                batch = pad.sample(words[used:used + cfg.batch_size])
                used += cfg.batch_size
                keep = None
                if mask_words:
                    keep = step_keeps[used:used + mask_words].reshape(shape)
                    used += mask_words
                _update(w, layers, batch, cfg, keep)
                _quantize(w, q, m)
            slot = (slot + used) % LFSR_PERIOD

            ep_rows.append(ep)
            cov_rows.append(covered)
            rew_rows.append(reward)
            iteration += 1
            pose = new_pose
            if terminal:
                break
        en_rows.append(price(k))
        episode_coverage.append(covered)
        window = episode_coverage[-cfg.convergence_window:]
        if len(window) == cfg.convergence_window:
            avg = sum(window) / len(window)
            if avg > best_window:
                # keep the policy from the strongest window; late training
                # can drift after the replay buffer fills with stale zeros
                best_window = avg
                best_w = w.copy()
            if avg >= target_cells:
                converged = True
                convergence_episode = ep
                break

    return TrainingTrace(
        iteration=np.arange(iteration), episode=np.array(ep_rows),
        covered_cells=np.array(cov_rows), reward=np.array(rew_rows),
        energy_pj=np.concatenate(en_rows),
        episode_coverage=np.array(episode_coverage),
        converged=converged, convergence_episode=convergence_episode,
        free_cells=free_cells,
        net=QNetwork(*_layers(w.copy() if best_w is None else best_w, shape),
                     horizon=net.horizon),
    )


def run_policy(arena: Arena, net: QNetwork, eps: float, steps: int, seed: int,
               model: str = "tdms", params: mm.EnergyParams | None = None,
               stochastic: bool = False, drop_p: float = 0.25) -> int:
    """Run a trained policy for one evaluation episode; returns cells covered.

    With stochastic=True the synapse masks stay active, matching how a
    stochastic-hardware policy actually executes.
    """
    mm.check_type(arena, "arena", Arena)
    mm.check_type(net, "net", QNetwork)
    mm.check_real(eps, "exploration rate eps", "[0, 1]")
    mm.check_real(drop_p, "drop probability drop_p", "[0, 1)")
    mm.check_type(stochastic, "stochastic", (bool, np.bool_))
    mm.check_int(steps, "steps", 0)
    if params is None:
        params = mm.default_params()
    mm.Meter(DEPTH_BITS, model, params)  # checks model and params; the run prices nothing
    lfsr = Lfsr(mm.check_int(seed, "seed", 1, 0xFFFF))
    operands, _, next_pose, _ = _pose_tables(arena, net.horizon)
    quant = net.quantized()
    pose = _flat_pose(arena, arena.start, 0)
    visited = bytearray(arena.width * arena.height)
    visited[pose // N_HEADINGS] = 1
    for _ in range(steps):
        keep = None
        if stochastic:
            keep, lfsr = drop_mask(net.w1.shape, drop_p, lfsr)
        acc2, _, _ = _forward(quant, operands[pose], keep)
        action, lfsr = select_action(acc2, eps, lfsr)
        pose = int(next_pose[pose, action])
        visited[pose // N_HEADINGS] = 1
    return sum(visited)

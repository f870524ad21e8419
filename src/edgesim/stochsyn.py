"""Stochastic synapse machinery: a 16-bit LFSR and drop-connect masks.

The pseudo-random source is a Fibonacci LFSR over the maximal-length
polynomial x^16 + x^14 + x^13 + x^11 + 1 (period 65535). Masks consume 16
output bits per weight: the bits, read MSB-first as a fraction of 2^16,
drop the weight when they fall below the drop probability.

Draws read a read-only stream table built once per process,
``stream_table()``: ``stream[j]`` is the 16-bit word that starts at cycle
index 16*j mod 65535, so the words a state draws in order sit next to each
other. A state's ``slot`` is the stream entry it draws next, its cursor, and
a draw of n words is ``stream_block(stream, slot, n)``: one slice, or a
gather only when it runs past the table's padding. The state after those
words is at slot ``(slot + n) % LFSR_PERIOD``.

``keep_table(p)`` holds the keep flags of every stream entry at drop
probability p, ``stream >= p * 2^16``, built once per p. A drop-connect mask
of n weights drawn from a cursor is the keep table's block at that cursor,
the same slots whose words it consumes, so masks need no compare of their
own; ``drop_mask`` draws one this way from an ``Lfsr``.

A hot loop that draws word by word can read a block instead: ``words(k)``
returns the next k words without stepping, the loop converts each word it
uses with ``to_uniform``/``to_randint`` (the conversions ``uniform`` and
``randint`` apply), and ``advance(used)`` then gives the state after the
words it used, in one table lookup. The result is bit-identical to making
the same draws one call at a time. Each step of the grid swarm workloads
reads its words this way. A ``qnav`` training step keeps no ``Lfsr`` at
all: it carries the int cursor, reads its block of words and its block of
keep flags at it, and moves it past the words it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from edgesim.macmodel import check_int

LFSR_BITS = 16
LFSR_PERIOD = (1 << LFSR_BITS) - 1
# taps for x^16 + x^14 + x^13 + x^11 + 1 in shift-right form: state bits 0, 2, 3, 5
_TAP_MASK = 0b0000_0000_0010_1101

BITS_PER_SAMPLE = 16
# 16 * 4096 = 65536 = 1 (mod 65535): the word at cycle index i is stream
# entry i * 4096 mod 65535
_SLOT_PER_INDEX = pow(BITS_PER_SAMPLE, -1, LFSR_PERIOD)
# stream entries past one period, so that draws of up to this many words are
# one slice from any state
_STREAM_PAD = 4096


@dataclass(frozen=True)
class Lfsr:
    """Immutable LFSR state; stepping returns the output bit and a new Lfsr."""

    state: int = 0xACE1

    def __post_init__(self):
        if type(self.state) is not int:  # the common case skips the full check
            check_int(self.state, "LFSR state")
        if not 0 < self.state <= 0xFFFF:
            raise ValueError(f"LFSR state must be a nonzero 16-bit value, got {self.state:#x}")

    def step(self) -> tuple[int, "Lfsr"]:
        bit = self.state & 1
        feedback = bin(self.state & _TAP_MASK).count("1") & 1
        return bit, Lfsr((self.state >> 1) | (feedback << 15))

    def bits(self, n: int) -> tuple[np.ndarray, "Lfsr"]:
        """Emit the next n output bits as a uint8 array (cycle-cache fast path)."""
        if n < 0:
            raise ValueError("bit count must be non-negative")
        states, index_of, _stream = _cycle_tables()
        start = index_of[self.state]
        # the output bit is the low bit of the state that emits it
        out = (states[(start + np.arange(n)) % LFSR_PERIOD] & 1).astype(np.uint8)
        return out, Lfsr(int(states[(start + n) % LFSR_PERIOD]))

    @property
    def slot(self) -> int:
        """The stream cursor: the entry of ``stream_table()`` this state draws next."""
        return int(_cycle_tables()[1][self.state]) * _SLOT_PER_INDEX % LFSR_PERIOD

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` 16-bit samples, without stepping: a read-only
        view when they are one slice of the stream table. ``advance(k)`` is
        the state after the first k of them."""
        if count < 0:
            raise ValueError("sample count must be non-negative")
        return stream_block(_cycle_tables()[2], self.slot, count)

    def advance(self, count: int) -> "Lfsr":
        """The state after ``count`` 16-bit samples, in one table lookup."""
        if count < 0:
            raise ValueError("sample count must be non-negative")
        states, index_of, _stream = _cycle_tables()
        return Lfsr(int(states[(int(index_of[self.state]) + BITS_PER_SAMPLE * count) % LFSR_PERIOD]))

    def uniforms(self, n: int) -> tuple[np.ndarray, "Lfsr"]:
        """Draw n floats in [0, 1): 16 bits each, MSB-first, over 2^16."""
        return to_uniform(self.words(n)), self.advance(n)

    def uniform(self) -> tuple[float, "Lfsr"]:
        return to_uniform(int(self.words(1)[0])), self.advance(1)

    def randint(self, n: int) -> tuple[int, "Lfsr"]:
        """Draw an integer in [0, n) from one 16-bit sample (n must divide 2^16
        for exact uniformity; callers here use powers of two)."""
        return to_randint(int(self.words(1)[0]), n), self.advance(1)

    def randints(self, count: int, n: int) -> tuple[np.ndarray, "Lfsr"]:
        """Batched randint; consumes the same bit stream as repeated calls."""
        return to_randint(self.words(count), n), self.advance(count)


_WORD_SCALE = float(1 << BITS_PER_SAMPLE)


def to_uniform(word):
    """The float in [0, 1) that a 16-bit sample (int or int array) draws."""
    return word / _WORD_SCALE


def to_randint(word, n: int):
    """The integer in [0, n) that a 16-bit sample (int or int array) draws."""
    return word % n


def _cycle_bits() -> np.ndarray:
    """Output bits of the walk from state 1, one period plus 16 more (uint8).

    State bit j at step n is output bit n+j, so the feedback rule reads
    ``out[n+16] = XOR over taps t of out[n+t]``. Squaring that recurrence k
    times gives ``out[n+16d] = XOR over t of out[n+t*d]`` for d = 2^k, which
    fills (16 - max tap)*d new bits per pass once 16d bits are known.
    """
    taps = [t for t in range(LFSR_BITS) if _TAP_MASK >> t & 1]
    reach = max(taps, default=0)
    n_out = LFSR_PERIOD + LFSR_BITS
    out = np.zeros(n_out, dtype=np.uint8)
    out[0] = 1  # state 1: bit 0 set, bits 1-15 clear
    known = LFSR_BITS
    while known < n_out:
        d = 1 << ((known // LFSR_BITS).bit_length() - 1)  # largest 2^k with 16d <= known
        lo = known - LFSR_BITS * d
        m = min((LFSR_BITS - reach) * d, n_out - known)
        block = np.zeros(m, dtype=np.uint8)
        for t in taps:
            block ^= out[lo + t * d:lo + t * d + m]
        out[known:known + m] = block
        known += m
    return out


@lru_cache(maxsize=None)
def _cycle_tables():
    """(states, index_of, stream) of the full output cycle, built on first use.

    Walking the cycle is bit-identical to stepping: the output stream from
    state s is the cycle starting at s's index.
    """
    out = _cycle_bits()
    # states[i] = sum_j out[i+j] << j; words[i]: the 16 output bits from cycle
    # index i on, read MSB first; stream: the words in draw order (module docstring)
    wrapped = out[:LFSR_PERIOD + BITS_PER_SAMPLE - 1]
    states = np.zeros(LFSR_PERIOD, dtype=np.uint16)
    words = np.zeros(LFSR_PERIOD, dtype=np.int64)
    for k in range(BITS_PER_SAMPLE):
        window = wrapped[k:k + LFSR_PERIOD]
        states |= window.astype(np.uint16) << k
        words = (words << 1) | window
    index_of = np.zeros(1 << LFSR_BITS, dtype=np.int32)
    index_of[states] = np.arange(LFSR_PERIOD, dtype=np.int32)
    # maximal length: the walk from state 1 meets every nonzero state exactly
    # once (distinct states, none of them 0) and its bits wrap back to state 1
    if not (index_of[0] == 0
            and np.array_equal(index_of[states], np.arange(LFSR_PERIOD))
            and np.array_equal(out[LFSR_PERIOD:], out[:LFSR_BITS])):
        raise AssertionError("LFSR tap mask is not maximal length")
    # int32 slots (16 * 69631 < 2^31) keep this gather's transient memory
    # below that of the loop above
    stream = words[np.arange(LFSR_PERIOD + _STREAM_PAD, dtype=np.int32) * BITS_PER_SAMPLE
                   % LFSR_PERIOD]
    tables = states, index_of, stream
    for table in tables:
        table.flags.writeable = False
    return tables


def stream_table() -> np.ndarray:
    """The read-only stream table (module docstring), built on first use."""
    return _cycle_tables()[2]


def stream_block(table: np.ndarray, slot: int, count: int) -> np.ndarray:
    """Entries ``slot`` to ``slot + count - 1``, modulo LFSR_PERIOD, of a
    table indexed like the stream table (``stream_table()`` or a
    ``keep_table``): a read-only view when they are one slice, else a gather
    that wraps to the table's start."""
    if slot + count <= len(table):
        return table[slot:slot + count]
    return table[(slot + np.arange(count)) % LFSR_PERIOD]


@lru_cache(maxsize=8)
def keep_table(p: float) -> np.ndarray:
    """Read-only keep flags of the stream table at drop probability p: entry
    j is False (dropped) when stream word j is below p. The words are
    compared with p scaled by 2^16, as exact as ``to_uniform``, which scales
    them down by 2^16. The drop probability must be in [0, 1)."""
    if not 0 <= p < 1:
        raise ValueError(f"drop probability must be in [0, 1), got {p}")
    keep = stream_table() >= p * _WORD_SCALE
    keep.flags.writeable = False
    return keep


def drop_mask(shape: tuple[int, int], p: float, lfsr: Lfsr) -> tuple[np.ndarray, Lfsr]:
    """Generate a drop-connect keep array: entry (i, j) is dropped (False) when
    its 16-bit sample is below p. Row-major draw order, 16 LFSR steps per entry.
    The array is read-only when it is a view of the cached ``keep_table``."""
    rows, cols = shape
    keep = stream_block(keep_table(p), lfsr.slot, rows * cols)
    return keep.reshape(shape), lfsr.advance(rows * cols)


def epsilon_greedy(qvals, eps: float, words):
    """The index into ``qvals`` that 16-bit samples ``words`` pick, and how
    many samples it used: the first explores when it draws below ``eps``, and
    the second then draws a uniform index over ``len(qvals)``; otherwise the
    pick is ``qvals.argmax()`` (ties go to the lowest index)."""
    if to_uniform(int(words[0])) < eps:
        return to_randint(int(words[1]), len(qvals)), 2
    return int(qvals.argmax()), 1


def masked_weights(weights: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Zero the dropped entries of the array ``weights``, leave kept entries
    untouched (a dropped negative weight reads +0, where ``weights * keep``
    would write -0.0). The result has the weights' dtype."""
    if weights.shape != keep.shape:
        raise ValueError(f"weight shape {weights.shape} != mask shape {keep.shape}")
    return np.where(keep, weights, 0)

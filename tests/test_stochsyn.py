import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesim import stochsyn
from edgesim.stochsyn import LFSR_PERIOD, Lfsr, _cycle_tables, drop_mask, masked_weights

TAPS = (0, 2, 3, 5)  # x^16 + x^14 + x^13 + x^11 + 1, shift-right form


def reference_step(state):
    """Independent step-by-step LFSR used as the oracle for the fast path."""
    bit = state & 1
    fb = 0
    for t in TAPS:
        fb ^= (state >> t) & 1
    return bit, ((state >> 1) | (fb << 15)) & 0xFFFF


def test_output_bit_is_bit0():
    bit, _ = Lfsr(0x0001).step()
    assert bit == 1
    bit, _ = Lfsr(0xFFFE).step()
    assert bit == 0


def test_zero_state_rejected():
    with pytest.raises(ValueError):
        Lfsr(0)


@pytest.mark.parametrize("state", [True, 1.5, 2.0, "0xACE1", None])
def test_non_integer_state_rejected(state):
    with pytest.raises(TypeError, match="LFSR state"):
        Lfsr(state)


@pytest.mark.parametrize("state", [np.uint16(0xACE1), np.int64(0xACE1), np.int32(0xACE1)])
def test_numpy_integer_state_draws_as_int(state):
    lfsr = Lfsr(state)
    assert lfsr == Lfsr(0xACE1)
    assert lfsr.uniform() == Lfsr(0xACE1).uniform()
    assert lfsr.words(5).tolist() == Lfsr(0xACE1).words(5).tolist()
    with pytest.raises(ValueError, match="nonzero 16-bit"):
        Lfsr(type(state)(0))


def test_step_matches_reference():
    state = 0xACE1
    lfsr = Lfsr(state)
    for _ in range(1000):
        ref_bit, state = reference_step(state)
        bit, lfsr = lfsr.step()
        assert bit == ref_bit
        assert lfsr.state == state


def test_full_period_returns_to_seed():
    # exhaustive cycle enumeration: exactly 65535 distinct states
    seen = set()
    lfsr = Lfsr(0xACE1)
    for _ in range(LFSR_PERIOD):
        assert lfsr.state not in seen
        seen.add(lfsr.state)
        _, lfsr = lfsr.step()
    assert lfsr.state == 0xACE1
    assert len(seen) == LFSR_PERIOD
    assert 0 not in seen


@functools.cache
def _stepped_cycle():
    """(states, bits, index_of) of the cycle from state 1, by Lfsr.step."""
    states = np.empty(LFSR_PERIOD, dtype=np.uint16)
    bits = np.empty(LFSR_PERIOD, dtype=np.uint8)
    index_of = np.zeros(1 << 16, dtype=np.int32)
    lfsr = Lfsr(1)
    for i in range(LFSR_PERIOD):
        states[i] = lfsr.state
        index_of[lfsr.state] = i
        bits[i], lfsr = lfsr.step()
    assert lfsr.state == 1
    return states, bits, index_of


def _stepped_words_at(index, count):
    """count 16-bit words, MSB first, read from the stepped bits at cycle index on."""
    _states, bits, _index_of = _stepped_cycle()
    offsets = index + 16 * np.arange(count)[:, None] + np.arange(16)
    return (bits[offsets % LFSR_PERIOD].astype(np.int64) << np.arange(15, -1, -1)).sum(axis=1)


def test_cycle_tables_match_stepping():
    # the stream table: stream[j] is the word at cycle index 16 * j, one
    # period plus the padding long
    states, bits, index_of = _stepped_cycle()
    # the output bit is the low bit of the state that emits it
    assert np.array_equal(states & 1, bits)
    stream = _stepped_words_at(0, LFSR_PERIOD + stochsyn._STREAM_PAD)
    tables = _cycle_tables()
    assert len(tables) == 3
    for got, want in zip(tables, (states, index_of, stream)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 1


# periods from state 1: 16; never returns (no tap 0, so stepping is not
# invertible); 255; never returns (no feedback)
@pytest.mark.parametrize("mask", [0b1, 0b0000_0000_0010_1100, 0b1000_0000_0000_0001, 0])
def test_build_cycle_rejects_non_maximal_taps(monkeypatch, mask):
    stochsyn._cycle_tables.cache_clear()
    monkeypatch.setattr(stochsyn, "_TAP_MASK", mask)
    with pytest.raises(AssertionError):
        stochsyn._cycle_tables()


def test_bits_fast_path_matches_stepping():
    lfsr = Lfsr(0xBEEF)
    fast, after = lfsr.bits(3000)
    slow = []
    cur = lfsr
    for _ in range(3000):
        b, cur = cur.step()
        slow.append(b)
    assert list(fast) == slow
    assert after.state == cur.state


def _stepped_words(lfsr, count):
    """count 16-bit samples read MSB first from Lfsr.step, and the state after."""
    words = []
    for _ in range(count):
        word = 0
        for _ in range(16):
            bit, lfsr = lfsr.step()
            word = (word << 1) | bit
        words.append(word)
    return words, lfsr


# any nonzero state, or one of the last states of the cycle table, whose
# draws wrap the table index back to the start
_states = st.one_of(
    st.integers(1, 0xFFFF),
    st.integers(LFSR_PERIOD - 100, LFSR_PERIOD - 1).map(lambda i: int(_cycle_tables()[0][i])),
)


@settings(max_examples=300, deadline=None)
@given(state=_states, count=st.integers(0, 8), n=st.sampled_from([1, 2, 3, 4, 7, 64, 500]))
def test_word_draws_match_stepping(state, count, n):
    lfsr = Lfsr(state)
    words, after = _stepped_words(lfsr, count)
    u, nxt = lfsr.uniforms(count)
    assert u.dtype == np.float64 and u.tolist() == [w / 65536 for w in words]
    assert nxt == after
    r, nxt = lfsr.randints(count, n)
    assert r.dtype == np.int64 and r.tolist() == [w % n for w in words]
    assert nxt == after
    (word,), after = _stepped_words(lfsr, 1)
    assert lfsr.uniform() == (word / 65536, after)
    assert lfsr.randint(n) == (word % n, after)
    assert type(lfsr.uniform()[0]) is float and type(lfsr.randint(n)[0]) is int


_PAD = stochsyn._STREAM_PAD


# any stream slot, or one near the end of the period, so that draws run into
# the padding and, past it, wrap to the table's start
@settings(max_examples=200, deadline=None)
@example(slot=LFSR_PERIOD - 1, count=_PAD + 1)  # the last draw that is one slice
@example(slot=LFSR_PERIOD - 1, count=_PAD + 2)  # the first that is not
@given(slot=st.one_of(st.integers(0, LFSR_PERIOD - 1),
                      st.integers(LFSR_PERIOD - 300, LFSR_PERIOD - 1)),
       count=st.one_of(st.integers(0, 64), st.integers(_PAD - 300, _PAD + 300)))
def test_stream_slice_draws_match_stepping(slot, count):
    states, _bits, _index_of = _stepped_cycle()
    index = 16 * slot % LFSR_PERIOD  # slot = index * 4096 mod 65535
    lfsr = Lfsr(int(states[index]))
    want = _stepped_words_at(index, count)
    after = Lfsr(int(states[(index + 16 * count) % LFSR_PERIOD]))
    u, nxt = lfsr.uniforms(count)
    assert u.dtype == np.float64 and np.array_equal(u, want / 65536)
    assert nxt == after
    r, nxt = lfsr.randints(count, 7)
    assert r.dtype == np.int64 and np.array_equal(r, want % 7)
    assert nxt == after


def test_word_draws_reject_negative_counts():
    with pytest.raises(ValueError):
        Lfsr(1).uniforms(-1)
    with pytest.raises(ValueError):
        Lfsr(1).randints(-2, 4)
    with pytest.raises(ValueError):
        Lfsr(1).words(-1)
    with pytest.raises(ValueError):
        Lfsr(1).advance(-1)


# from the last states of the cycle table, k words step the index across
# the cycle's wrap back to its start
@settings(max_examples=300, deadline=None)
@example(state=int(_cycle_tables()[0][LFSR_PERIOD - 1]), k=1)
@given(state=_states, k=st.integers(0, 40))
def test_block_read_and_advance_match_uniform_draws(state, k):
    lfsr = Lfsr(state)
    drawn, cur = [], lfsr
    for _ in range(k):
        u, cur = cur.uniform()
        drawn.append(u)
    assert lfsr.advance(k) == cur
    words = lfsr.words(k)
    assert [stochsyn.to_uniform(w) for w in words.tolist()] == drawn
    assert np.array_equal(stochsyn.to_uniform(words), lfsr.uniforms(k)[0])
    assert [stochsyn.to_randint(w, 4) for w in words.tolist()] == lfsr.randints(k, 4)[0].tolist()
    assert lfsr == Lfsr(state)  # a block read does not step


def test_drop_mask_reference_evaluation():
    # oracle: evaluate the mask definition with the naive stepper
    state = 0xACE1
    expect = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        for j in range(4):
            word = 0
            for _ in range(16):
                bit, state = reference_step(state)
                word = (word << 1) | bit
            expect[i, j] = (word / 65536.0) >= 0.25
    mask, after = drop_mask((4, 4), 0.25, Lfsr(0xACE1))
    assert np.array_equal(mask, expect)
    assert after.state == state
    # identical across runs
    mask2, _ = drop_mask((4, 4), 0.25, Lfsr(0xACE1))
    assert np.array_equal(mask, mask2)


def test_drop_mask_p_zero_keeps_all():
    mask, _ = drop_mask((8, 8), 0.0, Lfsr(0xACE1))
    assert mask.all()
    assert np.count_nonzero(~mask) == 0


def test_drop_mask_rate_single_large_mask():
    mask, _ = drop_mask((100, 100), 0.25, Lfsr(0xACE1))
    rate = np.count_nonzero(~mask) / 10000
    assert 0.20 <= rate <= 0.30


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5])
def test_mean_drop_rate_over_many_masks(p):
    lfsr = Lfsr(0x1234)
    dropped = 0
    for _ in range(10_000):
        mask, lfsr = drop_mask((8, 8), p, lfsr)
        dropped += np.count_nonzero(~mask)
    rate = dropped / (10_000 * 64)
    assert abs(rate - p) <= 0.02


def test_drop_mask_rejects_bad_p():
    with pytest.raises(ValueError):
        drop_mask((2, 2), 1.0, Lfsr(1))
    with pytest.raises(ValueError):
        drop_mask((2, 2), -0.1, Lfsr(1))


@pytest.mark.parametrize("p", [np.nan, 2.0, 1.0, -0.1, np.inf])
def test_keep_mask_rejects_bad_p(p):
    # a NaN or 2.0 drop probability gave an all-False mask: every synapse dropped
    with pytest.raises(ValueError, match="drop probability"):
        stochsyn.keep_mask(Lfsr(1).words(4), p, (2, 2))


def test_epsilon_greedy_boundaries():
    qvals = np.array([0.0, 3.0, 3.0, 1.0])
    # a word of 0 draws 0.0, which is not below eps = 0: the greedy pick,
    # the first maximum, from one word
    assert stochsyn.epsilon_greedy(qvals, 0.0, [0, 0xFFFF]) == (1, 1)
    # 0xFFFF draws 1 - 2^-16, below eps = 1: the second word picks the index
    # over len(qvals)
    assert stochsyn.epsilon_greedy(qvals, 1.0, [0xFFFF, 7]) == (3, 2)
    assert stochsyn.epsilon_greedy(qvals[:3], 1.0, [0xFFFF, 7]) == (1, 2)


def test_masked_weights_identity_and_zero():
    w = np.arange(12).reshape(3, 4)
    keep_all = np.ones((3, 4), dtype=bool)
    assert np.array_equal(masked_weights(w, keep_all), w)
    drop_all = np.zeros((3, 4), dtype=bool)
    assert not masked_weights(w, drop_all).any()


def test_masked_weights_single_entry():
    w = np.ones((2, 2))
    keep = np.ones((2, 2), dtype=bool)
    keep[0, 0] = False
    out = masked_weights(w, keep)
    assert out[0, 0] == 0
    assert out.sum() == 3


def test_masked_weights_dropped_negative_weight_reads_positive_zero():
    # w * keep would give -0.0 here, which changes a hashed float trace
    out = masked_weights(np.array([[-0.5, 0.25]]), np.array([[False, True]]))
    assert not np.signbit(out[0, 0]) and out[0, 1] == 0.25


def test_masked_weights_shape_mismatch():
    with pytest.raises(ValueError):
        masked_weights(np.ones((2, 3)), np.ones((3, 2), dtype=bool))

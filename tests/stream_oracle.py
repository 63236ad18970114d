"""The word-pair stream mirror, kept as the test oracle for ``protocols._pcg64_words``.

``pair_step_pcg64_words`` computes the first outputs of
``np.random.default_rng([seed, t]).bit_generator`` for a block of trial
indices t the way NumPy's ``SeedSequence`` writes it: one uint32 array
per pool word, and one ``hashmix``/``mix`` per (source, destination)
pair, each stepping the shared hash constant once.  Its PCG64 step takes
the high product of two 64-bit words from four 32-bit partial products
and a separate mid sum.  The package computes the same streams with the
whole pool as one array, one step per source word.
"""

from typing import Iterator

import numpy as np

from photonweave.protocols import (
    _INIT_A,
    _INIT_B,
    _MASK32,
    _MASK64,
    _MIX_MULT_L,
    _MIX_MULT_R,
    _MULT_A,
    _MULT_B,
    _PCG_MULT,
    _POOL_SIZE,
)


def _hash_constants(h: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """SeedSequence's hash constant before and after each of its steps."""
    while True:
        after = h * mult & _MASK32
        yield np.uint32(h), np.uint32(after)
        h = after


def _hashmix(value: np.ndarray, hashes: Iterator[tuple[np.uint32, np.uint32]]) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 words, stepping the shared hash constant once."""
    xor, mult = next(hashes)
    value = (value ^ xor) * mult
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two uint32 words."""
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ value >> np.uint32(16)


def _mul_hi(a: np.ndarray, m: int) -> np.ndarray:
    """The high 64 bits of each a * m, for a 64-bit constant m, from 32-bit halves."""
    low, half = np.uint64(_MASK32), np.uint64(32)
    a0, a1, m0, m1 = a & low, a >> half, np.uint64(m & _MASK32), np.uint64(m >> 32)
    cross0, cross1 = a0 * m1, a1 * m0
    mid = (a0 * m0 >> half) + (cross0 & low) + (cross1 & low)
    return a1 * m1 + (cross0 >> half) + (cross1 >> half) + (mid >> half)


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One LCG step, state * _PCG_MULT + inc mod 2^128, on (high, low) words."""
    m_lo = _PCG_MULT & _MASK64
    new_hi = _mul_hi(lo, m_lo) + lo * np.uint64(_PCG_MULT >> 64) + hi * np.uint64(m_lo)
    new_lo = lo * np.uint64(m_lo) + inc_lo
    return new_hi + inc_hi + (new_lo < inc_lo), new_lo


def pair_step_pcg64_words(seed: int, trials: np.ndarray,
                          count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` outputs of ``default_rng([seed, t]).bit_generator`` for each t.

    Returns the 64-bit words, one row per trial, and the generators' state
    after them, one column per trial: state high, state low, increment high,
    increment low.
    """
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    trials = np.asarray(trials, dtype=np.uint64)
    words = np.empty((len(trials), count), np.uint64)
    state = np.empty((4, len(trials)), np.uint64)
    wide = trials > np.uint64(_MASK32)
    # an index of two 32-bit words makes the entropy one word longer: seed those apart
    for rows in (np.flatnonzero(~wide), np.flatnonzero(wide)):
        if not len(rows):
            continue
        t = trials[rows]
        entropy = [np.full(len(t), w, np.uint32) for w in seed_words]
        entropy.append((t & np.uint64(_MASK32)).astype(np.uint32))
        if wide[rows[0]]:
            entropy.append((t >> np.uint64(32)).astype(np.uint32))
        # SeedSequence.mix_entropy: fill the pool (zeros past the entropy), mix
        # every pool word into every other, then mix in the entropy past the pool
        hashes = _hash_constants(_INIT_A, _MULT_A)
        padded = entropy + [np.zeros(len(t), np.uint32)] * (_POOL_SIZE - len(entropy))
        pool = [_hashmix(word, hashes) for word in padded[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], _hashmix(word, hashes))
        # generate_state(4, uint64): eight hashed 32-bit words, read little-endian in pairs
        hashes = _hash_constants(_INIT_B, _MULT_B)
        out = [_hashmix(pool[i % _POOL_SIZE], hashes).astype(np.uint64) for i in range(8)]
        val = [out[i] | out[i + 1] << np.uint64(32) for i in range(0, 8, 2)]
        # PCG64 seeding: inc = (val[2], val[3]) << 1 | 1; step from 0, add (val[0], val[1]), step
        inc_hi = val[2] << np.uint64(1) | val[3] >> np.uint64(63)
        inc_lo = val[3] << np.uint64(1) | np.uint64(1)
        lo = inc_lo + val[1]
        hi, lo = _pcg64_step(inc_hi + val[0] + (lo < inc_lo), lo, inc_hi, inc_lo)
        for k in range(count):  # each output: step, then XSL-RR
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            folded, rot = hi ^ lo, hi >> np.uint64(58)
            words[rows, k] = folded >> rot | folded << (np.uint64(64) - rot & np.uint64(63))
        state[:, rows] = hi, lo, inc_hi, inc_lo
    return words, state

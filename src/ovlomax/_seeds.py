"""Deterministic seed derivation for simulation streams.

Every replication of every study cell gets its own PCG64 stream, seeded by a
SplitMix64-style fold of (master_seed, namespace, cell_index, replication).
The fold is pure integer arithmetic, so the derived seeds -- and therefore the
streams -- are identical across platforms and interpreter versions.

The fold runs on numpy ``uint64`` arrays, so the seeds of any array of
replications come from one pass; the study folds a slab of consecutive
design groups at a time.  :func:`pcg64_states` then turns the seeds into the
initial ``{state, inc}`` of ``np.random.PCG64(seed)`` in array passes: a
vectorised copy of numpy's ``SeedSequence`` hash, then PCG's 128-bit seeding
step on pairs of 64-bit words.  :func:`fill_uniforms` restarts one reused
generator on each stream by writing those four words straight into the
generator's state struct, instead of building a ``SeedSequence`` and a
``PCG64`` per replication or going through the ``state`` setter.
"""
from __future__ import annotations

import ctypes
import functools

import numpy as np

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
# the master seeds: derive_seeds would wrap a wider one onto its residue mod 2**64
SEEDS = range(_MASK + 1)

# numpy.random.SeedSequence: 32-bit hash constants, a pool of four words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG's default 128-bit LCG multiplier, as low and high words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LO, _PCG_MULT_HI = np.uint64(_PCG_MULT & _MASK), np.uint64(_PCG_MULT >> 64)


def _hash_steps(init: int, mult: int, n: int) -> tuple:
    """Constants of ``n`` consecutive hash steps, as ``(n, 1)`` columns.

    Step k xors with term k of ``init, init*mult, init*mult**2, ...`` (mod
    2**32) and multiplies by term k + 1.  The terms do not depend on the
    data, so they are computed once.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _M32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# 4 words fill the pool, then 4 x 3 cross mixes; generate_state(4, uint64)
# draws 8 words cycling over the pool
_POOL_XOR, _POOL_MUL = _hash_steps(_INIT_A, _MULT_A, 16)
_OUT_XOR, _OUT_MUL = _hash_steps(_INIT_B, _MULT_B, 8)


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a ``uint64`` array (wraps mod 2**64)."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def _part(p) -> np.ndarray:
    # every part is reduced mod 2**64: negative and wider integers wrap
    if isinstance(p, np.ndarray):
        return p.astype(np.uint64)
    return np.array([int(p) & _MASK], dtype=np.uint64)


def derive_seeds(*parts) -> np.ndarray:
    """Fold integer parts into 64-bit seeds (SplitMix64 finalizer).

    A part is an integer or an integer array; array parts broadcast against
    each other, so ``derive_seeds(s, ns, cells[:, None], np.arange(reps))``
    gives the ``(cells, reps)`` seeds of a block in one pass; scalar parts
    alone give an array of one seed.
    """
    state = np.zeros(1, dtype=np.uint64)
    for p in parts:
        state = _mix(state + _PHI + _part(p))
    return state


def _hashmix(words: np.ndarray, step: int, count: int) -> np.ndarray:
    # SeedSequence hash steps step .. step + count - 1, one per output row
    words = words ^ _POOL_XOR[step:step + count]
    words *= _POOL_MUL[step:step + count]
    words ^= words >> 16
    return words


def _mul_high(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    low_high = a1 * b0
    cross = (a0 * b0 >> 32) + (low_high & _M32) + a0 * b1  # at most 2**64 - 1
    return a1 * b1 + (low_high >> 32) + (cross >> 32)


def pcg64_states(seeds) -> np.ndarray:
    """The initial ``{state, inc}`` of ``np.random.PCG64(seed)``, one row per
    seed, in C order.

    Row k holds the generator's 128-bit state and stream increment as low and
    high 64-bit words: ``(state_lo, state_hi, inc_lo, inc_hi)``, an ``(N, 4)``
    ``uint64`` array.  It is made in two array passes over all the seeds:
    ``SeedSequence(seed).generate_state(4, np.uint64)`` gives the initial
    state s0 and sequence q, then PCG's seeding step sets inc = 2*q + 1 and
    state = ((s0 + inc) * M + inc) mod 2**128, for PCG's multiplier M, on
    pairs of 64-bit words.  Seeds are 64-bit, so ``SeedSequence`` sees at
    most two 32-bit entropy words; a seed below 2**32 has one, and the zero
    used here as its high word hashes exactly like the zero ``SeedSequence``
    fills the pool with.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & _M32
    pool[1] = seeds >> 32
    pool = _hashmix(pool, 0, 4)
    step = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], step, 3)
        step += 3
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    words = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_XOR
    words *= _OUT_MUL
    words ^= words >> 16
    # generate_state(4, uint64): consecutive 32-bit words pair up little-endian,
    # into the high and low words of s0, then those of q
    words = words.astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = words[0::2] | words[1::2] << 32
    # PCG's seeding step, mod 2**128 on (low, high) word pairs
    inc_lo, inc_hi = q_lo << 1 | 1, q_hi << 1 | q_lo >> 63
    a_lo = s_lo + inc_lo
    a_hi = s_hi + inc_hi + (a_lo < s_lo)
    p_lo = a_lo * _PCG_MULT_LO
    p_hi = _mul_high(a_lo, _PCG_MULT_LO) + a_lo * _PCG_MULT_HI + a_hi * _PCG_MULT_LO
    state_lo = p_lo + inc_lo
    state_hi = p_hi + inc_hi + (state_lo < p_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _state_words(bitgen: np.random.PCG64) -> np.ndarray:
    """A writable ``uint64`` view of the four words of ``bitgen``'s ``{state,
    inc}`` struct.  ``ctypes.state_address`` points at numpy's
    ``pcg64_state``, whose first member points at that struct.  The view does
    not keep ``bitgen`` alive."""
    struct = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(struct))


# a state and an increment with four distinct words: lo, hi, inc_lo, inc_hi
_PROBE = (0x0123456789ABCDEF, 0x0FEDCBA987654321, 0x1122334455667789, 0x0899AABBCCDDEEFF)


@functools.cache
def _word_order() -> tuple:
    """The columns of :func:`pcg64_states` in the order the generator's struct
    holds its words, probed once per process.

    The probe sets a known state through the public setter and reads it back
    through :func:`_state_words`.  Little-endian builds with a native 128-bit
    integer hold ``(lo, hi, inc_lo, inc_hi)``; the emulated ``{high, low}``
    struct and big-endian builds hold ``(hi, lo, inc_hi, inc_lo)``.  Any other
    layout raises ``RuntimeError`` naming numpy's version: the in-place write
    is the only way :func:`fill_uniforms` restarts a stream.
    """
    bitgen = np.random.PCG64(0)
    lo, hi, inc_lo, inc_hi = _PROBE
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                    "has_uint32": 0, "uinteger": 0}
    held = _state_words(bitgen).tolist()
    for order in ((0, 1, 2, 3), (1, 0, 3, 2)):
        if held == [_PROBE[i] for i in order]:
            return order
    raise RuntimeError(f"numpy {np.__version__}: PCG64 holds its state words in an "
                       "unrecognised order; streams cannot be restarted in place")


def fill_uniforms(out: np.ndarray, words: np.ndarray, gen: np.random.Generator) -> None:
    """Fill row k of ``out`` with the first uniforms of the stream whose
    initial state is row k of ``words`` (:func:`pcg64_states`).

    One PCG64 generator ``gen`` is restarted on every stream by writing the
    row's four words straight into its ``{state, inc}`` struct, in the order
    :func:`_word_order` probed; the columns are reordered once per call.  The
    write leaves the generator's buffered 32-bit half alone: a generator that
    only ever draws doubles, as the study's does, never fills it, so
    ``has_uint32`` stays 0 and every row starts where a freshly seeded
    ``PCG64`` does.
    """
    held = _state_words(gen.bit_generator)
    for row, seed_words in zip(out, words[:, _word_order()]):
        held[...] = seed_words
        gen.random(out=row)


def stream(*parts: int) -> np.random.Generator:
    """A PCG64 generator keyed by the given integer parts, seeded by numpy
    itself: the plain definition the study's in-place restarts reproduce."""
    return np.random.Generator(np.random.PCG64(int(derive_seeds(*parts)[0])))

"""Deterministic seed derivation for simulation streams.

Every replication of every study cell gets its own PCG64 stream, seeded by a
SplitMix64-style fold of (master_seed, namespace, cell_index, replication).
The fold is pure integer arithmetic, so the derived seeds -- and therefore the
streams -- are identical across platforms and interpreter versions.

The fold runs on numpy ``uint64`` arrays, so the seeds of any array of
replications come from one pass; the study folds a slab of consecutive
design groups at a time.  :func:`pcg64_states` then turns seeds into the
words ``np.random.PCG64(seed)`` is seeded from, through a vectorised copy of
numpy's ``SeedSequence`` hash.  :func:`fill_uniforms` applies PCG's 128-bit
seeding step to each row of words just before it restarts one reused
generator on that stream, instead of building a ``SeedSequence`` and a
``PCG64`` per replication.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15

# numpy.random.SeedSequence: 32-bit hash constants, a pool of four words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def pcg64_states(seeds) -> np.ndarray:
    """Seeding words of ``np.random.PCG64(seed)``, one row per seed, in C order.

    Row k is ``SeedSequence(seed).generate_state(4, np.uint64)``: the high
    and low words of the initial state, then those of the stream selector,
    as an ``(N, 4)`` ``uint64`` array.  :func:`_restart` applies PCG's
    128-bit seeding step to a row.  Seeds are 64-bit, so ``SeedSequence``
    sees at most two 32-bit entropy words; a seed below 2**32 has one, and
    the zero used here as its high word hashes exactly like the zero
    ``SeedSequence`` fills the pool with.
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
    # generate_state(4, uint64): consecutive 32-bit words pair up little-endian
    return np.ascontiguousarray(words.T).astype("<u4").view("<u8")


def _restart(bitgen: np.random.PCG64, hi: int, lo: int, inc_hi: int, inc_lo: int) -> None:
    """Put ``bitgen`` where ``np.random.PCG64(seed)`` starts, from one row of
    :func:`pcg64_states` of that seed."""
    # pcg64 srandom: inc = 2 * initseq + 1, then two LCG steps around adding
    # the initial state; a freshly seeded PCG64 also holds no buffered 32-bit half
    inc = (inc_hi << 65 | inc_lo << 1 | 1) & _MASK128
    state = (((hi << 64 | lo) + inc) * _PCG_MULT + inc) & _MASK128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


def fill_uniforms(out: np.ndarray, words: np.ndarray, gen: np.random.Generator) -> None:
    """Fill row k of ``out`` with the first uniforms of the stream seeded by
    row k of ``words`` (:func:`pcg64_states`), drawn by restarting the PCG64
    generator ``gen``."""
    bitgen = gen.bit_generator
    for row, seed_words in zip(out, words.tolist()):
        _restart(bitgen, *seed_words)
        gen.random(out=row)


def stream(*parts: int) -> np.random.Generator:
    """A PCG64 generator keyed by the given integer parts."""
    bitgen = np.random.PCG64(0)  # a placeholder state, replaced at once
    _restart(bitgen, *pcg64_states(derive_seeds(*parts)).tolist()[0])
    return np.random.Generator(bitgen)

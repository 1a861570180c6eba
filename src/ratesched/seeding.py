"""Seeds of the sweep's random draws.

``subseed`` derives a child seed from the master seed and a (sweep point,
topology, role) counter through numpy's ``SeedSequence`` spawn keys; it is
the public handle for reproducing one draw in isolation. ``seed_states``
gives, for a block of such keys at once, the state of
``np.random.default_rng(subseed(...))``'s PCG64 generator: it computes
numpy's seeding arithmetic (``SeedSequence``'s hash and mix, then PCG64's
128-bit seeding) on arrays of keys rather than building six
``SeedSequence`` objects per seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["subseed", "seed_states"]


def subseed(master_seed: int, *key: int) -> int:
    """Deterministic child seed for a (sweep point, topology, role) counter."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash and mix constants (a pool of 4 words, stable under
# NEP 19) and PCG64's 128-bit multiplier, for seed_states.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """The 32-bit words of an integer >= 0, least significant first, as
    SeedSequence reads it: one word for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pool(entropy: list) -> list:
    """SeedSequence's pool of 4 words for the entropy words ``entropy``. A
    word is an int, or a uint64 array of 32-bit words with one entry per
    key, so that many keys are hashed at once."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate(pool: list, n_words: int) -> list:
    """``SeedSequence.generate_state(n_words, np.uint64)`` of ``pool``."""
    const = _INIT_B
    out = []
    for i in range(2 * n_words):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return [out[2 * j] | out[2 * j + 1] << 32 for j in range(n_words)]


def seed_states(master_seed: int, point: int, ks: range) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of
    ``np.random.default_rng(subseed(master_seed, point, k, role))`` for each
    k of ``ks`` and, within it, roles 0, 1 and 2, computed for all keys at
    once. Every k of ``ks`` must be below 2**32, or none: that is the number
    of words k adds to the entropy.
    """
    k = np.repeat(np.arange(ks.start, ks.stop, dtype=np.uint64), 3)
    role = np.tile(np.arange(3, dtype=np.uint64), len(ks))
    # a spawned SeedSequence pads its run entropy with zeros to the pool size
    run = _words(master_seed)
    run += [0] * (4 - len(run))
    k_words = [k & _MASK32, k >> 32] if ks.start >> 32 else [k & _MASK32]
    (sub,) = _generate(_pool(run + _words(point) + k_words + [role]), 1)
    # SeedSequence(sub): a sub below 2**32 is one word, and the missing second
    # word hashes as 0, the value of sub >> 32
    v0, v1, v2, v3 = (v.tolist() for v in _generate(_pool([sub & _MASK32, sub >> 32]), 4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(v0, v1, v2, v3):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states

"""Deterministic derivation of labeled, independent random streams.

Every stream is addressed by (master seed, purpose label, integer indices).
The address is hashed into the generator seed, so streams never overlap and
adding a new purpose or index never perturbs an existing stream. This is
what makes run- and agent-level parallelism incapable of changing results.

``derive_rng`` builds one stream. ``derive_seeds`` computes the PCG64 seeds
of many addresses at once: each address is still hashed with SHA-256, and
then numpy's ``SeedSequence`` mixing (O'Neill's ``seed_seq``) runs its own
loops, in its own order, with each step applied to a whole row of
addresses. ``rng_from_seed`` turns one such seed into the generator
``derive_rng`` would have built.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_WORDS = 8  # a SHA-256 digest whose top word is nonzero, in uint32 words


def _digest(key: str) -> bytes:
    return hashlib.sha256(key.encode("utf-8")).digest()


def seed_sequence(master_seed: int, label: str, *indices: int) -> np.random.SeedSequence:
    key = "|".join([str(int(master_seed)), label, *(str(int(i)) for i in indices)])
    return np.random.SeedSequence(int.from_bytes(_digest(key), "big"))


def derive_rng(master_seed: int, label: str, *indices: int) -> np.random.Generator:
    """Independent generator for the stream addressed by the given label and indices."""
    return np.random.default_rng(seed_sequence(master_seed, label, *indices))


def _hash_chain(init: int, mult: int):
    """numpy's ``hashmix`` over rows of words, with its chain's running constant.

    Each call hashes a row the way numpy hashes one word: xor the constant
    in, advance the constant by ``mult``, multiply by it and fold the high
    half into the low half.
    """
    const = init

    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal const
        out = words ^ np.uint32(const)
        const = (const * mult) & _MASK32
        out *= np.uint32(const)
        return out ^ (out >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> 16)


def derive_seeds(master_seed: int, label: str, index_rows) -> np.ndarray:
    """PCG64 seeds of many stream addresses, one ``(4,)`` uint64 row each.

    Row ``r`` equals ``seed_sequence(master_seed, label, *index_rows[r])
    .generate_state(4, np.uint64)`` bit for bit, so ``rng_from_seed`` of it
    is the generator ``derive_rng`` gives for that address. The mixing is
    about 300 numpy operations on rows, whatever the number of rows: a
    fixed cost of about 0.3 ms per call on an idle 2-core Xeon, so single
    streams belong to ``derive_rng`` (about 25 us there).
    """
    index_rows = [tuple(row) for row in index_rows]
    prefix = f"{int(master_seed)}|{label}"
    # ``%d`` formats an index as ``str(int(index))`` does in ``seed_sequence``.
    digests = b"".join(_digest(prefix + ("|%d" * len(row)) % row) for row in index_rows)
    # SeedSequence reads the digest as an integer, least significant word
    # first. Words are rows and addresses columns, so every step below runs
    # numpy's loops in numpy's order, each on a whole row of addresses.
    entropy = np.frombuffer(digests, dtype=">u4").reshape(-1, _WORDS).T[::-1].astype(np.uint32)

    # SeedSequence.mix_entropy: the first words fill the pool, every pool
    # word is mixed into every other, then each remaining word into all.
    hashmix = _hash_chain(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64): 8 uint32 words cycling over the pool.
    hashmix = _hash_chain(_INIT_B, _MULT_B)
    state = np.array([hashmix(word) for word in pool * 2])
    seeds = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)

    # SeedSequence drops leading zero words of its entropy integer, so a
    # digest whose top word is zero mixes fewer words; let numpy do those.
    for r in np.flatnonzero(entropy[-1] == 0).tolist():
        seeds[r] = seed_sequence(master_seed, label, *index_rows[r]).generate_state(4, np.uint64)
    return seeds


class _FixedSeed(ISeedSequence):
    """A seed sequence that hands PCG64 a precomputed ``(4,)`` uint64 seed."""

    __slots__ = ("_seed",)

    def __init__(self, seed: np.ndarray):
        self._seed = seed

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self._seed) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self._seed)} uint64 words only")
        return self._seed


def rng_from_seed(seed) -> np.random.Generator:
    """The generator whose PCG64 is seeded with one ``derive_seeds`` row."""
    seed = np.ascontiguousarray(seed, dtype=np.uint64)
    return np.random.Generator(np.random.PCG64(_FixedSeed(seed)))

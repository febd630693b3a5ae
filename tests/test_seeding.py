"""Batched stream seeds against numpy's SeedSequence, the exact reference."""

import hashlib

import numpy as np
import pytest

import fedsim.seeding as seeding
from fedsim.seeding import derive_rng, derive_seeds, rng_from_seed, seed_sequence

MASTER_SEEDS = (0, 1, 2**32, 2**64 - 1)
# "%" and "|" sit in the prefix that derive_seeds never formats.
LABELS = ("gradients/fed%avg|x", "градиенты/é✓")


def address_rows():
    """1,303 addresses with 0 to 3 indices, negative and numpy integers included."""
    rows = [()]
    rows += [(i,) for i in range(-20, 80)]
    rows += [(a, b) for a in range(20) for b in range(10)]
    rows += [(run, k, n) for run in range(2) for k in range(20) for n in range(25)]
    rows += [(np.int64(3), np.uint64(2**63), 7), (2**70, -(2**40), 0)]
    return rows


def reference(master_seed, label, rows):
    return np.array(
        [seed_sequence(master_seed, label, *row).generate_state(4, np.uint64) for row in rows],
        dtype=np.uint64,
    ).reshape(len(rows), 4)


class TestDeriveSeeds:
    @pytest.mark.parametrize("label", LABELS)
    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    def test_rows_equal_seed_sequence_state(self, master_seed, label):
        # 4 master seeds x 2 labels x 1,303 rows: 10,424 addresses in all.
        rows = address_rows()
        seeds = derive_seeds(master_seed, label, rows)
        assert seeds.dtype == np.uint64
        assert seeds.shape == (len(rows), 4)
        assert np.array_equal(seeds, reference(master_seed, label, rows))

    def test_integer_array_rows(self):
        rows = np.arange(60, dtype=np.int64).reshape(20, 3)
        seeds = derive_seeds(5, "gradients/a", rows)
        assert np.array_equal(seeds, reference(5, "gradients/a", rows.tolist()))

    @pytest.mark.parametrize("rows", [[], np.zeros((0, 3), dtype=np.int64)])
    def test_zero_rows(self, rows):
        seeds = derive_seeds(1, "gradients/a", rows)
        assert seeds.dtype == np.uint64
        assert seeds.shape == (0, 4)

    def test_leading_zero_words_fall_back_to_seed_sequence(self, monkeypatch):
        # A digest whose top 32-bit word is zero is a shorter entropy integer
        # to SeedSequence, which then mixes fewer words. No SHA-256 digest of
        # a small search has that, so the digests are crafted.
        zero_words = {"9|crafted|1": 1, "9|crafted|3": 2, "9|crafted|4": 8}

        def crafted(key):
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            n = zero_words.get(key, 0)
            return bytes(4 * n) + digest[4 * n:]

        monkeypatch.setattr(seeding, "_digest", crafted)
        rows = [(i,) for i in range(6)]
        for i, n in ((1, 1), (3, 2), (4, 8)):
            assert seed_sequence(9, "crafted", i).entropy < 2 ** (256 - 32 * n)
        seeds = derive_seeds(9, "crafted", rows)
        assert np.array_equal(seeds, reference(9, "crafted", rows))


class TestRngFromSeed:
    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    def test_same_generator_as_derive_rng(self, master_seed):
        rows = [(run, k, n) for run in range(2) for k in range(3) for n in (0, 5, 199)]
        label = "gradients/fedavg_svrg"
        for row, seed in zip(rows, derive_seeds(master_seed, label, rows)):
            batched = rng_from_seed(seed)
            single = derive_rng(master_seed, label, *row)
            assert batched.bit_generator.state == single.bit_generator.state
            assert np.array_equal(batched.random(3), single.random(3))
            assert np.array_equal(batched.integers(50, size=8), single.integers(50, size=8))
            assert batched.bit_generator.state == single.bit_generator.state

    def test_only_the_pcg64_seed_is_served(self):
        seed = derive_seeds(0, "x", [(1,)])[0]
        with pytest.raises(ValueError):
            seeding._FixedSeed(seed).generate_state(4, np.uint32)
        with pytest.raises(ValueError):
            seeding._FixedSeed(seed).generate_state(2, np.uint64)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a test extra
    given = None

if given is not None:
    index = st.integers(-(2**70), 2**70)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        master_seed=st.integers(0, 2**80),
        label=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        rows=st.lists(st.lists(index, max_size=3), max_size=12),
    )
    def test_derive_seeds_matches_seed_sequence(master_seed, label, rows):
        seeds = derive_seeds(master_seed, label, rows)
        assert np.array_equal(seeds, reference(master_seed, label, rows))
        for row, seed in zip(rows[:2], seeds):
            single = derive_rng(master_seed, label, *row)
            assert rng_from_seed(seed).bit_generator.state == single.bit_generator.state

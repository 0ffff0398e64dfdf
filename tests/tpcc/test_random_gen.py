"""Unit tests for TPC-C randomness."""

import random

import pytest

from repro.tpcc import LAST_NAME_SYLLABLES, TPCCRandom

ALPHANUMERIC = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


class TestNURand:
    def test_values_in_range(self):
        rng = TPCCRandom(seed=1)
        for __ in range(2000):
            v = rng.nurand(1023, 1, 3000, 259)
            assert 1 <= v <= 3000

    def test_distribution_is_skewed(self):
        # NURand concentrates mass: top-decile ids should be hit far more
        # often than uniform would predict
        rng = TPCCRandom(seed=2)
        counts = {}
        n = 20_000
        for __ in range(n):
            v = rng.customer_id(3000)
            counts[v] = counts.get(v, 0) + 1
        hot = sorted(counts.values(), reverse=True)
        top_300 = sum(hot[:300])
        assert top_300 > n * 0.2  # uniform would give ~10%

    def test_deterministic_given_seed(self):
        a = [TPCCRandom(seed=5).nurand(8191, 1, 100_000, 7911) for __ in range(5)]
        b = [TPCCRandom(seed=5).nurand(8191, 1, 100_000, 7911) for __ in range(5)]
        assert a == b


class TestLastNames:
    def test_syllable_composition(self):
        rng = TPCCRandom()
        assert rng.last_name(0) == "BARBARBAR"
        assert rng.last_name(371) == "PRICALLYOUGHT"
        assert rng.last_name(999) == "EINGEINGEING"

    def test_all_names_from_syllables(self):
        rng = TPCCRandom(seed=3)
        for __ in range(100):
            name = rng.customer_last_name_run(3000)
            rest = name
            parts = 0
            while rest:
                for syllable in LAST_NAME_SYLLABLES:
                    if rest.startswith(syllable):
                        rest = rest[len(syllable) :]
                        parts += 1
                        break
                else:
                    raise AssertionError(f"unparseable name {name}")
            assert parts == 3

    def test_load_names_cover_small_population(self):
        rng = TPCCRandom(seed=4)
        seen = {rng.customer_last_name_load(8) for __ in range(500)}
        expected = {rng.last_name(i) for i in range(8)}
        assert seen <= expected


class TestStringsAndPermutations:
    def test_astring_length_bounds(self):
        rng = TPCCRandom(seed=5)
        for __ in range(100):
            s = rng.astring(3, 9)
            assert 3 <= len(s) <= 9

    def test_nstring_is_numeric(self):
        rng = TPCCRandom(seed=6)
        assert rng.nstring(8, 8).isdigit()

    def test_zip_code_format(self):
        rng = TPCCRandom(seed=7)
        z = rng.zip_code()
        assert len(z) == 9
        assert z.endswith("11111")

    def test_permutation_is_complete(self):
        rng = TPCCRandom(seed=8)
        perm = rng.permutation(100)
        assert sorted(perm) == list(range(1, 101))

    def test_data_string_sometimes_original(self):
        rng = TPCCRandom(seed=9)
        hits = sum("ORIGINAL" in rng.data_string(20, 50) for __ in range(2000))
        assert 100 < hits < 350  # ~10%

    def test_decimal_bounds(self):
        rng = TPCCRandom(seed=10)
        for __ in range(100):
            v = rng.decimal(1.0, 5000.0)
            assert 1.0 <= v <= 5000.0


class TestStringStreamIdentity:
    """astring/nstring draw in bulk but must equal one ``rng.choice`` per character.

    The loader's whole row stream (and so every simulated number) depends
    on it: a string one draw off shifts every value drawn after it.
    """

    @pytest.mark.parametrize("lo,hi", [(0, 0), (1, 1), (4, 4), (8, 16), (26, 50), (300, 500)])
    def test_same_strings_and_next_draw_as_per_character_choice(self, lo, hi):
        for seed in range(200):
            fast = TPCCRandom(seed=seed)
            reference = random.Random(seed)
            for method, alphabet in (("astring", ALPHANUMERIC), ("nstring", "0123456789")):
                length = reference.randint(lo, hi)
                want = "".join(reference.choice(alphabet) for __ in range(length))
                assert getattr(fast, method)(lo, hi) == want, (seed, method)
            assert fast.rng.random() == reference.random(), seed

"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import (
    as_rng,
    jittered,
    spawn_rngs,
    stable_hash_seed,
)


class TestAsRng:
    def test_from_int_is_deterministic(self):
        a = as_rng(42).integers(0, 1000, size=5)
        b = as_rng(42).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 10**9)
        b = as_rng(2).integers(0, 10**9)
        assert a != b

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_from_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        gen = as_rng(ss)
        assert isinstance(gen, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        rngs = spawn_rngs(0, 5)
        assert len(rngs) == 5

    def test_streams_are_independent(self):
        rngs = spawn_rngs(0, 3)
        draws = [r.integers(0, 10**12) for r in rngs]
        assert len(set(draws)) == 3

    def test_reproducible(self):
        a = [r.integers(0, 10**9) for r in spawn_rngs(5, 4)]
        b = [r.integers(0, 10**9) for r in spawn_rngs(5, 4)]
        assert a == b

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_from_generator_parent(self):
        parent = np.random.default_rng(3)
        children = spawn_rngs(parent, 2)
        assert len(children) == 2


class TestStableHashSeed:
    def test_deterministic(self):
        assert stable_hash_seed("M1", 3, "start") == stable_hash_seed("M1", 3, "start")

    def test_differs_by_parts(self):
        assert stable_hash_seed("M1", 3) != stable_hash_seed("M1", 4)

    def test_differs_by_base_seed(self):
        assert stable_hash_seed("x", base_seed=0) != stable_hash_seed("x", base_seed=1)

    def test_in_range(self):
        value = stable_hash_seed("anything", 123, None)
        assert 0 <= value < 2**63


class TestJittered:
    def test_no_rng_returns_value(self):
        assert jittered(None, 10.0, 0.5) == 10.0

    def test_zero_std_returns_value(self):
        assert jittered(np.random.default_rng(0), 10.0, 0.0) == 10.0

    def test_jitter_changes_value(self):
        rng = np.random.default_rng(0)
        values = {jittered(rng, 1.0, 0.1) for _ in range(10)}
        assert len(values) > 1

    def test_jitter_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert jittered(rng, 1.0, 2.0) > 0.0


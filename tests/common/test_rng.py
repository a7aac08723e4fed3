"""Tests for repro.common.rng."""

import numpy as np

from repro.common.rng import DEFAULT_SEED, derive_seed, make_rng, resolve_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_labels_change_seed(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_base_changes_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_returns_non_negative_int(self):
        value = derive_seed(7, "stream", 3)
        assert isinstance(value, int) and value >= 0


class TestMakeRng:
    def test_default_seed_reproducible(self):
        a = make_rng(None).integers(0, 1 << 30, size=5)
        b = make_rng(None).integers(0, 1 << 30, size=5)
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_stream(self):
        a = make_rng(123).random(10)
        b = make_rng(123).random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_labels_different_streams(self):
        a = make_rng(123, "x").random(10)
        b = make_rng(123, "y").random(10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_generator_with_labels_derives_child(self):
        gen = np.random.default_rng(0)
        child = make_rng(gen, "child")
        assert child is not gen

    def test_resolve_seed(self):
        assert resolve_seed(None) == DEFAULT_SEED
        assert resolve_seed(9) == 9

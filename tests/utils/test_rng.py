"""Unit and statistical tests for the deterministic RNG."""

import random
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.utils.rng import (
    DeterministicRNG,
    below,
    cumulative_weights,
    derive_seed,
    fixed_outcome,
    geometric_stop,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_names_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_root_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_name_path_is_unambiguous(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")


class TestDeterministicRNG:
    def test_requires_int_seed(self):
        with pytest.raises(TypeError):
            DeterministicRNG("not-a-seed")

    def test_same_seed_same_stream(self):
        a = DeterministicRNG(42)
        b = DeterministicRNG(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_forks_are_independent(self):
        root = DeterministicRNG(7)
        child_a = root.fork("a")
        child_b = root.fork("b")
        draws_a = [child_a.uniform() for _ in range(10)]
        draws_b = [child_b.uniform() for _ in range(10)]
        assert draws_a != draws_b

    def test_fork_does_not_disturb_parent(self):
        one = DeterministicRNG(9)
        two = DeterministicRNG(9)
        one.fork("child")
        assert one.randint(0, 10**9) == two.randint(0, 10**9)

    def test_uniform_range(self):
        rng = DeterministicRNG(0)
        for _ in range(100):
            value = rng.uniform()
            assert 0.0 <= value < 1.0

    def test_randint_inclusive(self):
        rng = DeterministicRNG(0)
        draws = {rng.randint(1, 3) for _ in range(200)}
        assert draws == {1, 2, 3}

    def test_choice(self):
        rng = DeterministicRNG(3)
        items = ["x", "y", "z"]
        assert all(rng.choice(items) in items for _ in range(50))

    def test_weighted_choice_respects_zero_weight_items(self):
        rng = DeterministicRNG(5)
        draws = {
            rng.weighted_choice(["a", "b"], [1.0, 1e-12]) for _ in range(100)
        }
        assert "a" in draws

    def test_geometric_mean(self):
        rng = DeterministicRNG(11)
        draws = [rng.geometric(4.0) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert 3.5 < mean < 4.5
        assert min(draws) >= 1

    def test_geometric_degenerate(self):
        rng = DeterministicRNG(1)
        assert all(rng.geometric(1.0) == 1 for _ in range(20))
        assert all(rng.geometric(0.5) == 1 for _ in range(20))

    def test_maybe_edges(self):
        rng = DeterministicRNG(2)
        assert not any(rng.maybe(0.0) for _ in range(50))
        assert all(rng.maybe(1.0) for _ in range(50))

    def test_maybe_rate(self):
        rng = DeterministicRNG(13)
        hits = sum(rng.maybe(0.25) for _ in range(8000))
        assert 0.21 < hits / 8000 < 0.29

    def test_sample_bits(self):
        rng = DeterministicRNG(17)
        assert rng.sample_bits(0) == 0
        for _ in range(50):
            assert 0 <= rng.sample_bits(12) < 4096

    def test_shuffle_is_permutation(self):
        rng = DeterministicRNG(19)
        items = list(range(30))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    @given(st.integers(min_value=0, max_value=2**32))
    def test_any_seed_works(self, seed):
        rng = DeterministicRNG(seed)
        assert 0.0 <= rng.uniform() < 1.0


class TestDrawRules:
    """The rule helpers reproduce :mod:`random`'s own draws exactly."""

    @pytest.mark.parametrize(
        "low, high",
        [(0, 0), (0, 1), (1, 3), (0, 4), (0, 383), (5, 1000), (0, 2**40 + 3)],
    )
    def test_randint_matches_random_randint(self, low, high):
        ours, theirs = DeterministicRNG(21), random.Random(21)
        assert [ours.randint(low, high) for _ in range(200)] == [
            theirs.randint(low, high) for _ in range(200)
        ]

    def test_below_on_the_bound_primitive(self):
        rng, reference = DeterministicRNG(22), random.Random(22)
        draws = [below(rng.draw_bits, 384) for _ in range(200)]
        assert draws == [reference.randrange(384) for _ in range(200)]

    def test_empty_range_raises(self):
        with pytest.raises(ValidationError):
            DeterministicRNG(0).randint(5, 4)
        with pytest.raises(ValidationError):
            below(DeterministicRNG(0).draw_bits, 0)

    @pytest.mark.parametrize(
        "weights", [[5.0, 3.0, 1.2], [1.0], [2, 1], [0.0, 1.0, 0.0]]
    )
    def test_weighted_choice_matches_random_choices(self, weights):
        items = list(range(len(weights)))
        ours, theirs = DeterministicRNG(23), random.Random(23)
        assert [ours.weighted_choice(items, weights) for _ in range(200)] == [
            theirs.choices(items, weights=weights, k=1)[0] for _ in range(200)
        ]

    def test_cumulative_table_draws_like_choices(self):
        weights = [5.0, 3.0, 1.2]
        cumulative, total = cumulative_weights(weights)
        rng, reference = DeterministicRNG(24), random.Random(24)
        hi = len(cumulative) - 1
        draws = [
            bisect_right(cumulative, rng.draw() * total, 0, hi) for _ in range(200)
        ]
        assert draws == [
            reference.choices(range(3), weights=weights, k=1)[0] for _ in range(200)
        ]

    @pytest.mark.parametrize("weights", [[], [0.0], [1.0, float("inf")]])
    def test_cumulative_table_rejects_bad_weights(self, weights):
        with pytest.raises(ValidationError):
            cumulative_weights(weights)

    def test_weighted_choice_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            DeterministicRNG(0).weighted_choice(["a", "b"], [1.0])

    @pytest.mark.parametrize(
        "probability, outcome", [(-0.5, False), (0.0, False), (1.0, True), (2.0, True)]
    )
    def test_certain_bernoulli_draws_nothing(self, probability, outcome):
        rng = DeterministicRNG(25)
        state = rng.state_snapshot()
        assert fixed_outcome(probability) is outcome
        assert rng.maybe(probability) is outcome
        assert rng.state_snapshot() == state

    def test_uncertain_bernoulli_draws_once(self):
        rng, reference = DeterministicRNG(26), random.Random(26)
        assert fixed_outcome(0.3) is None
        assert [rng.maybe(0.3) for _ in range(100)] == [
            reference.random() < 0.3 for _ in range(100)
        ]

    @pytest.mark.parametrize("mean", [0.5, 1.0])
    def test_constant_geometric_draws_nothing(self, mean):
        rng = DeterministicRNG(27)
        state = rng.state_snapshot()
        assert geometric_stop(mean) is None
        assert rng.geometric(mean) == 1
        assert rng.state_snapshot() == state

    def test_geometric_counts_trials_to_stop(self):
        rng, reference = DeterministicRNG(28), random.Random(28)
        stop = geometric_stop(2.5)
        assert stop == pytest.approx(0.4)
        expected = []
        for _ in range(100):
            length = 1
            while reference.random() >= stop:
                length += 1
            expected.append(length)
        assert [rng.geometric(2.5) for _ in range(100)] == expected

"""Sampling estimator: plan arithmetic, determinism, accuracy, no-gap."""

import random
from fractions import Fraction

import pytest

from conftest import staff_fact
from shapfact.approx import (SplitMix64, make_plan, sample_contribution,
                             shapley_additive_fpras, substream_key)
from shapfact.errors import InputError
from shapfact.naive import brute_shapley, gen_gap_instance
from shapfact.parsing import parse_facts, parse_query, parse_schema


def test_plan_sample_counts():
    assert make_plan(0.05, 0.1).samples == 2397
    assert make_plan(0.05, 0.01).samples == 4239
    assert make_plan(0.1, 0.1).samples == 600


def test_plan_validation():
    with pytest.raises(InputError):
        make_plan(0.0, 0.1)
    with pytest.raises(InputError):
        make_plan(0.05, 1.5)


def test_splitmix_streams_are_deterministic_and_distinct():
    a = SplitMix64(42)
    b = SplitMix64(42)
    c = SplitMix64(43)
    xs = [a.next_u64() for _ in range(5)]
    assert xs == [b.next_u64() for _ in range(5)]
    assert xs != [c.next_u64() for _ in range(5)]
    assert all(0 <= x < 2 ** 64 for x in xs)
    assert substream_key(7, 0) != substream_key(7, 1)
    assert substream_key(7, 1) == substream_key(7, 1)


def test_shuffle_is_a_permutation():
    rng = SplitMix64(9)
    items = list(range(20))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items and shuffled != items


def test_estimates_are_reproducible(staff_db, q1):
    ft1 = staff_fact(staff_db, "TA", "Adam")
    plan = make_plan(0.05, 0.1, seed=11)
    first, _ = shapley_additive_fpras(staff_db, q1, ft1, plan)
    second, _ = shapley_additive_fpras(staff_db, q1, ft1, plan)
    assert first == second
    # a different seed gives a different draw (almost surely)
    other, _ = shapley_additive_fpras(staff_db, q1, ft1,
                                      make_plan(0.05, 0.1, seed=12))
    assert other != first


def test_estimates_within_epsilon_on_known_value(staff_db, q1):
    ft1 = staff_fact(staff_db, "TA", "Adam")
    for seed in range(5):
        est, plan = shapley_additive_fpras(
            staff_db, q1, ft1, make_plan(0.05, 0.1, seed=seed))
        assert abs(est - Fraction(-3, 28)) <= Fraction(1, 20)
        assert plan.samples == 2397


def test_sure_winner_and_sure_loser_are_exact():
    schema = parse_schema("relation R/1\nrelation S/1")
    # f is the only endogenous fact and always flips the query on
    db = parse_facts("endo R(a)", schema)
    q = parse_query("q() :- R(x).", schema)
    est, _ = shapley_additive_fpras(db, q, db.endogenous[0],
                                    make_plan(0.1, 0.1, seed=3))
    assert est == 1
    # ... and here it always flips the query off
    db2 = parse_facts("endo R(A)\nexo S(b)", schema)
    q2 = parse_query("q() :- S(x), not R(A).", schema)
    est2, _ = shapley_additive_fpras(db2, q2, db2.endogenous[0],
                                     make_plan(0.1, 0.1, seed=3))
    assert est2 == -1


def test_single_sample_route_agrees_with_batched(staff_db, q1):
    """The per-permutation reference sampler and the vectorised batch
    estimator draw from the same distribution; with matched seeds over a
    few hundred samples their means should land close together."""
    ft2 = staff_fact(staff_db, "TA", "Ben")
    rng = SplitMix64(5)
    literal = sum(sample_contribution(staff_db, q1, ft2, rng)
                  for _ in range(400)) / 400
    est, _ = shapley_additive_fpras(staff_db, q1, ft2,
                                    make_plan(0.05, 0.1, seed=5))
    truth = Fraction(-2, 35)
    assert abs(Fraction(literal) - truth) < Fraction(1, 10)
    assert abs(est - truth) < Fraction(1, 20)


def test_no_gap_additive_estimate_misses_tiny_values():
    """The additive guarantee says nothing multiplicative: a strictly
    positive value far below epsilon is estimated as exactly zero."""
    inst = gen_gap_instance(12)
    assert inst.expected_value > 0
    assert inst.expected_value < Fraction(1, 2 ** 12)
    est, _ = shapley_additive_fpras(inst.db, inst.query, inst.fact,
                                    make_plan(0.05, 0.1, seed=0))
    assert est == 0


def test_estimator_tracks_brute_on_gap_instance():
    inst = gen_gap_instance(2)  # value 1/30, above epsilon resolution
    exact = brute_shapley(inst.db, inst.query, inst.fact)
    est, _ = shapley_additive_fpras(inst.db, inst.query, inst.fact,
                                    make_plan(0.05, 0.1, seed=1))
    assert abs(est - exact) <= Fraction(1, 20)

"""Sampling estimator: plan arithmetic, determinism, accuracy, no-gap."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import QRSTNR, staff_fact
from shapfact import approx
from shapfact.approx import (SamplingPlan, _philox_key, make_plan,
                             shapley_additive_fpras)
from shapfact.errors import CapExceededError, InputError
from shapfact.naive import (brute_shapley, brute_shapley_all, eval_boolean,
                            gen_gap_instance, hom_profiles)
from shapfact.parsing import parse_facts, parse_query, parse_schema


def test_plan_sample_counts():
    assert make_plan(0.05, 0.1).samples == 2397
    assert make_plan(0.05, 0.01).samples == 4239
    assert make_plan(0.1, 0.1).samples == 600
    # the plan derives its budget; no caller can set one that disagrees
    assert SamplingPlan(0.05, 0.1, seed=7) == make_plan(0.05, 0.1, seed=7)
    with pytest.raises(TypeError):
        SamplingPlan(0.05, 0.1, 7, 5)


def test_plan_validation():
    with pytest.raises(InputError):
        make_plan(0.0, 0.1)
    with pytest.raises(InputError):
        make_plan(0.05, 1.5)
    with pytest.raises(InputError):
        SamplingPlan(1.0, 0.1)
    # epsilon squared underflows to 0; the budget overflows to infinity;
    # so does 2 / delta
    for epsilon, delta in ((1e-300, 0.1), (1e-160, 0.1), (0.05, 5e-324)):
        with pytest.raises(InputError, match="no finite sample budget"):
            make_plan(epsilon, delta)


def test_arrival_key_cap_bounds_orders_times_facts(staff_db, q1,
                                                  monkeypatch):
    plan = make_plan(0.1, 0.1)
    keys = plan.samples * staff_db.n_endogenous
    monkeypatch.setattr(approx, "ARRIVAL_KEY_CAP", keys)
    values, _ = shapley_additive_fpras(staff_db, q1, plan)
    assert set(values) == set(staff_db.endogenous)
    monkeypatch.setattr(approx, "ARRIVAL_KEY_CAP", keys - 1)
    with pytest.raises(CapExceededError, match=f"would draw {keys} arrival"):
        shapley_additive_fpras(staff_db, q1, plan)


def test_philox_key_is_pinned():
    # the key fixes every sampled draw, so these pin the sampled reports
    assert _philox_key(0) == 0x6E789E6AA1B965F4
    assert _philox_key(7) == 0x044C3CD7F43C661C


def test_estimates_are_reproducible(staff_db, q1):
    plan = make_plan(0.05, 0.1, seed=11)
    first, _ = shapley_additive_fpras(staff_db, q1, plan)
    second, _ = shapley_additive_fpras(staff_db, q1, plan)
    assert first == second
    assert set(first) == set(staff_db.endogenous)
    # a different seed gives a different draw (almost surely)
    other, _ = shapley_additive_fpras(staff_db, q1,
                                      make_plan(0.05, 0.1, seed=12))
    assert other != first


def test_estimates_within_epsilon_on_known_value(staff_db, q1):
    ft1 = staff_fact(staff_db, "TA", "Adam")
    for seed in range(5):
        est, plan = shapley_additive_fpras(
            staff_db, q1, make_plan(0.05, 0.1, seed=seed))
        assert abs(est[ft1] - Fraction(-3, 28)) <= Fraction(1, 20)
        assert plan.samples == 2397


def test_sure_winner_and_sure_loser_are_exact():
    schema = parse_schema("relation R/1\nrelation S/1")
    # f is the only endogenous fact and always flips the query on
    db = parse_facts("endo R(a)", schema)
    q = parse_query("q() :- R(x).", schema)
    est, _ = shapley_additive_fpras(db, q, make_plan(0.1, 0.1, seed=3))
    assert est == {db.endogenous[0]: 1}
    # ... and here it always flips the query off
    db2 = parse_facts("endo R(A)\nexo S(b)", schema)
    q2 = parse_query("q() :- S(x), not R(A).", schema)
    est2, _ = shapley_additive_fpras(db2, q2, make_plan(0.1, 0.1, seed=3))
    assert est2 == {db2.endogenous[0]: -1}


def _literal_estimates(db, query, plan):
    """The definition, one order at a time: sort each row of the plan's
    arrival keys into an order, evaluate the query on every prefix, and
    credit each flip to the fact that arrived."""
    gen = np.random.Generator(np.random.Philox(key=_philox_key(plan.seed)))
    keys = gen.integers(0, 1 << 64, size=(plan.samples, db.n_endogenous),
                        dtype=np.uint64)
    totals = dict.fromkeys(db.endogenous, 0)
    for row in keys.tolist():
        world = list(db.exogenous)
        before = eval_boolean(world, query)
        for i in sorted(range(len(row)), key=row.__getitem__):
            fact = db.endogenous[i]
            world.append(fact)
            after = eval_boolean(world, query)
            totals[fact] += int(after) - int(before)
            before = after
    return {f: Fraction(t, plan.samples) for f, t in totals.items()}


def test_one_pass_equals_the_literal_arrival_orders(staff_db, q1,
                                                    mixed_polarity_db):
    gap = gen_gap_instance(2)
    # the gadget's profiles hold up to three positive and two negated facts
    gadget = parse_query(QRSTNR, mixed_polarity_db.schema)
    for db, query in ((staff_db, q1), (gap.db, gap.query),
                      (mixed_polarity_db, gadget)):
        for seed in (0, 5, 9):
            plan = make_plan(0.2, 0.2, seed=seed)
            assert (shapley_additive_fpras(db, query, plan)[0]
                    == _literal_estimates(db, query, plan))


def test_sampled_estimates_obey_the_axioms(staff_db, q1, monkeypatch):
    """Every sampled order telescopes, so the estimates sum exactly to the
    query's gain; a fact no order can flip reads exactly 0; and the chunk
    size does not change the draws."""
    gain = (int(eval_boolean(staff_db, q1))
            - int(eval_boolean(list(staff_db.exogenous), q1)))
    assert gain == 1
    null = staff_fact(staff_db, "TA", "David")
    row_bytes = 8 * (3 * staff_db.n_endogenous + 7
                     + 3 * len(hom_profiles(staff_db, q1)))
    chunk_rows = []
    chunks = approx._chunks

    def spy(total, size):
        chunk_rows.append(max(chunks(total, size)))
        return chunks(total, size)

    monkeypatch.setattr(approx, "_chunks", spy)
    for seed in range(4):
        plan = make_plan(0.1, 0.1, seed=seed)
        runs = []
        for budget in (plan.samples * row_bytes, 2 * row_bytes, row_bytes):
            monkeypatch.setattr(approx, "_CHUNK_BYTES", budget)
            runs.append(shapley_additive_fpras(staff_db, q1, plan)[0])
        assert chunk_rows[-3:] == [plan.samples, 2, 1]
        values = runs[0]
        assert runs == [values] * 3
        assert sum(values.values()) == gain
        assert values[null] == 0


def test_no_gap_additive_estimate_misses_tiny_values():
    """The additive guarantee says nothing multiplicative: a strictly
    positive value far below epsilon is estimated as exactly zero."""
    inst = gen_gap_instance(12)
    assert inst.expected_value > 0
    assert inst.expected_value < Fraction(1, 2 ** 12)
    est, _ = shapley_additive_fpras(inst.db, inst.query,
                                    make_plan(0.05, 0.1, seed=0))
    assert est[inst.fact] == 0


def test_estimator_tracks_brute_on_gap_instance():
    inst = gen_gap_instance(2)  # value 1/30, above epsilon resolution
    exact = brute_shapley(inst.db, inst.query, inst.fact)
    est, _ = shapley_additive_fpras(inst.db, inst.query,
                                    make_plan(0.05, 0.1, seed=1))
    assert abs(est[inst.fact] - exact) <= Fraction(1, 20)


# ---------------------------------------------------------------------------
# ties between arrival keys, and edge cases
# ---------------------------------------------------------------------------

def _alternating(n):
    """``q() :- R(x), not T(x).`` over n endogenous facts R(c0), T(c0),
    R(c1), T(c1), ...: a fact's value depends on the arrival order."""
    schema = parse_schema("relation R/1\nrelation T/1")
    db = parse_facts("\n".join(f"endo {'RT'[i % 2]}(c{i // 2})"
                               for i in range(n)), schema)
    return db, parse_query("q() :- R(x), not T(x).", schema)


def _drawing(monkeypatch, reshape):
    """Make every ``numpy.random.Generator`` pass its integer draws through
    ``reshape(keys, bits)``, where ``bits`` is ``⌈log₂ n⌉`` for rows of n
    keys.  Generator is immutable, so a subclass takes its place."""
    class Reshaped(np.random.Generator):
        def integers(self, *args, **kwargs):
            keys = super().integers(*args, **kwargs)
            return reshape(keys, max(keys.shape[1] - 1, 0).bit_length())

    monkeypatch.setattr(np.random, "Generator", Reshaped)


@pytest.mark.parametrize("reshape", [
    # four distinct keys: most rows hold keys that are exactly equal
    lambda keys, bits: keys >> np.uint64(62) << np.uint64(62),
    # every key of a row shares its high bits; only the low bits differ
    lambda keys, bits: (keys & np.uint64((1 << bits) - 1))
    | np.uint64(0xDEADBEEF << 32),
    # the high bits of a key come from a range of four: some rows tie there
    lambda keys, bits: keys >> np.uint64(62 - bits),
], ids=["equal", "shared-high-bits", "some-rows"])
def test_tied_keys_arrive_as_a_stable_sort_orders_them(monkeypatch, reshape):
    _drawing(monkeypatch, reshape)
    plan = make_plan(0.3, 0.3, seed=4)
    # 1, 2, 8 and 9 facts: either side of the packed index's width steps
    for n in (1, 2, 8, 9):
        db, query = _alternating(n)
        assert db.n_endogenous == n
        values = shapley_additive_fpras(db, query, plan)[0]
        assert values == _literal_estimates(db, query, plan)
        assert sum(values.values()) == int(eval_boolean(db, query))


def test_sampling_edge_cases_read_the_exact_values():
    schema = parse_schema("relation R/1\nrelation S/1")
    plan = make_plan(0.1, 0.1, seed=2)
    cases = [
        # no endogenous facts at all
        ("exo R(a)", "q() :- R(x)."),
        # no profile: nothing can make the query true
        ("endo R(a)\nendo S(b)", "q() :- R(x), S(x)."),
        # the empty profile: the query holds on the exogenous facts alone
        ("exo R(a)\nendo R(b)\nendo S(b)\nendo S(c)",
         "q() :- R(x), not S(x)."),
    ]
    for facts, text in cases:
        db, query = parse_facts(facts, schema), parse_query(text, schema)
        values = shapley_additive_fpras(db, query, plan)[0]
        assert values == brute_shapley_all(db, query)
        assert not any(values.values())
    assert ((), ()) in hom_profiles(db, query)


def test_a_row_over_the_chunk_budget_is_a_chunk_of_its_own():
    # a size of 0 rows happens when one row holds more than _CHUNK_BYTES
    assert list(itertools.islice(approx._chunks(5, 0), 6)) == [1] * 5


def test_sampling_memory_stays_within_the_chunk_budget():
    # R(x), S(x, y), not T(y) on a 12 x 12 bipartite graph of 64 edges,
    # half of them exogenous: 56 endogenous facts and 64 profiles
    rng = random.Random(56)
    schema = parse_schema("relation R/1\nrelation S/2\nrelation T/1")
    edges = rng.sample([(x, y) for x in range(12) for y in range(12)], 64)
    lines = [f"endo R(x{i})\nendo T(y{i})" for i in range(12)]
    lines += [f"{'exo' if i % 2 else 'endo'} S(x{x}, y{y})"
              for i, (x, y) in enumerate(edges)]
    db = parse_facts("\n".join(lines), schema)
    query = parse_query("q() :- R(x), S(x, y), not T(y).", schema)
    assert db.n_endogenous == 56
    plan = make_plan(0.05, 0.1, seed=7)
    # a first call loads what numpy loads on first use (about 0.8 MB)
    shapley_additive_fpras(db, query, plan)
    tracemalloc.start()
    try:
        shapley_additive_fpras(db, query, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * approx._CHUNK_BYTES  # 0.93 x, about 0.24 MB

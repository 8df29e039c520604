"""Reference-engine tests.

The subset-enumeration engine is the trust anchor for everything else, so
this file checks it directly against the permutation definition of the
value (feasible only for the tiniest instances) and against hand-worked
cases, rather than against other engines.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (STAFF_Q1_SAT_COUNTS, STAFF_Q1_VALUES, random_instance,
                      staff_fact)
from shapfact.errors import (CapExceededError, FactNotEndogenousError,
                             InputError)
from shapfact.naive import (DEFAULT_CAP, SubsetOracle, brute_count_satisfying,
                            brute_relevance, brute_shapley,
                            brute_shapley_all, eval_boolean,
                            gen_gap_instance, hom_profiles, shapley_weight)
from shapfact.parsing import parse_facts, parse_query, parse_schema


def permutation_shapley(db, query, fact):
    """The definition, literally: average the marginal contribution of
    ``fact`` over every permutation of the endogenous facts."""
    endo = db.endogenous
    exo = tuple(db.exogenous)

    def truth(subset):
        return eval_boolean(exo + subset, query)

    total = Fraction(0)
    n = 0
    for perm in itertools.permutations(endo):
        i = perm.index(fact)
        before = perm[:i]
        total += int(truth(before + (fact,))) - int(truth(before))
        n += 1
    return total / n


def test_subset_formula_equals_permutation_definition():
    rng = random.Random(97)
    for _ in range(25):
        db, query = random_instance(rng, max_endo=5)
        for fact in db.endogenous:
            assert brute_shapley(db, query, fact) \
                == permutation_shapley(db, query, fact)


def test_weights_cover_all_coalitions():
    # summing weight(n, k) over the C(n-1, k) coalitions of each size
    # accounts for every permutation exactly once
    import math
    for n in range(1, 9):
        assert sum(math.comb(n - 1, k) * shapley_weight(n, k)
                   for k in range(n)) == 1


def _world(*facts_text):
    schema = parse_schema("relation R/1\nrelation S/2")
    return parse_facts("\n".join(facts_text), schema)


def test_eval_boolean_semantics():
    q = parse_query("q() :- R(x), not S(x, B).")
    assert eval_boolean(_world("endo R(A)"), q)
    assert not eval_boolean(_world("endo R(A)", "endo S(A, B)"), q)
    assert eval_boolean(_world("endo R(A)", "endo S(C, B)"), q)


def test_hom_profiles_ignore_exogenous_blocked_images():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(a)\nexo S(a)", schema)
    q = parse_query("q() :- R(x), not S(x).", schema)
    # the only candidate mapping hits the exogenous S(a), which can never
    # be absent, so no profile survives
    assert hom_profiles(db, q) == []


def test_staff_q1_values(staff_db, q1):
    values = brute_shapley_all(staff_db, q1)
    got = {(f.relation.name, f.args): v for f, v in values.items()}
    assert got == STAFF_Q1_VALUES


def test_staff_q1_counts(staff_db, q1):
    counts = brute_count_satisfying(staff_db, q1)
    assert counts == STAFF_Q1_SAT_COUNTS


def test_exogenous_fact_is_not_a_player(staff_db, q1):
    stud = staff_fact(staff_db, "Stud", "Adam")
    with pytest.raises(FactNotEndogenousError):
        brute_shapley(staff_db, q1, stud)


def test_cap_refusal():
    n = DEFAULT_CAP + 1
    schema = parse_schema("relation R/1")
    lines = "\n".join(f"endo R(c{i})" for i in range(n))
    db = parse_facts(lines, schema)
    q = parse_query("q() :- R(x).", schema)
    with pytest.raises(CapExceededError):
        SubsetOracle(db, q)
    # a raised cap unlocks it
    assert brute_shapley(db, q, db.endogenous[0], cap=n) == Fraction(1, n)


def test_relevance_witness_replays():
    rng = random.Random(4242)
    exo_sets = 0
    for _ in range(40):
        db, query = random_instance(rng, max_endo=6)
        exo = tuple(db.exogenous)
        if exo:
            exo_sets += 1
        for fact in db.endogenous:
            rel = brute_relevance(db, query, fact)
            if rel.pos_witness is not None:
                world = exo + tuple(rel.pos_witness)
                assert not eval_boolean(world, query)
                assert eval_boolean(world + (fact,), query)
            if rel.neg_witness is not None:
                world = exo + tuple(rel.neg_witness)
                assert eval_boolean(world, query)
                assert not eval_boolean(world + (fact,), query)
            assert rel.relevant == (rel.pos_witness is not None
                                    or rel.neg_witness is not None)
    assert exo_sets > 0  # the generator did exercise exogenous facts


def test_relevance_iff_nonzero_value_here():
    # over all facts, relevance and a nonzero value coincide for the
    # subset oracle regardless of polarity structure
    rng = random.Random(777)
    for _ in range(30):
        db, query = random_instance(rng, max_endo=6)
        for fact in db.endogenous:
            relevant = brute_relevance(db, query, fact).relevant
            assert relevant == (brute_shapley(db, query, fact) != 0)


# ---------------------------------------------------------------------------
# the gap family
# ---------------------------------------------------------------------------

def test_gap_instance_shape():
    inst = gen_gap_instance(3)
    assert inst.db.n_endogenous == 7  # 2n + 1
    assert str(inst.query.disjuncts[0]) \
        == "q() :- R(x), S(x, y), not R(y)."
    assert inst.fact.args == ("cx_0",)
    assert inst.db.schema["S"].exogenous_only


def test_gap_size_must_be_positive():
    with pytest.raises(InputError, match="n must be at least 1, got 0"):
        gen_gap_instance(0)


def test_gap_values_small():
    for n in (1, 2, 3):
        inst = gen_gap_instance(n)
        value = brute_shapley(inst.db, inst.query, inst.fact)
        assert value == inst.expected_value
        assert value == Fraction(1, (6, 30, 140)[n - 1])


def test_gap_values_match_closed_form():
    import math
    for n in (1, 2, 3, 4):
        inst = gen_gap_instance(n)
        assert inst.expected_value == Fraction(
            math.factorial(n) ** 2, math.factorial(2 * n + 1))

"""Nine end-to-end guarantees, one test each.

Every test pits an engine against an independent oracle (subset/world
enumeration, or hand-frozen constants) on either the university example
or seeded random instances.  Tolerances are zero unless a test is about
a randomized estimator, in which case the bound is the estimator's own.
"""

import io
import json
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from conftest import (AUTHOR_Q, AUTHOR_X, GAIFMAN_Q, GAIFMAN_Q_X,
                      GAIFMAN_QPRIME, GAIFMAN_QPRIME_X, NOPATH_Q,
                      PATH_QPRIME, Q2, Q3, QRSTNR, SP_X, STAFF_Q1_VALUES,
                      random_exo_rewrite_instance,
                      random_hierarchical_instance, random_instance,
                      random_prob_instance, random_q2_instance, staff_fact,
                      with_exogenous)
from shapfact.approx import make_plan, shapley_additive_fpras
from shapfact.cli import Invocation, run
from shapfact.errors import NotPolarityConsistentError
from shapfact.exact import (count_satisfying_subsets, shapley_exact,
                            shapley_exact_all)
from shapfact.model import single_disjunct
from shapfact.naive import (brute_count_satisfying, brute_relevance,
                            brute_shapley, brute_shapley_all, eval_boolean,
                            gen_gap_instance)
from shapfact.parsing import parse_facts, parse_query
from shapfact.prob import brute_prob, prob_eval, prob_eval_hierarchical
from shapfact.relevance import relevance, shapley_is_zero
from shapfact.rewriting import (apply_step, rewrite, shapley_exo,
                                shapley_exo_all)
from shapfact.structure import VerdictKind, classify

DATA_ARGS = dict(schema="tests/data/staff_schema.txt",
                 facts="tests/data/staff_facts.txt",
                 query="tests/data/q1.txt")


def test_01_running_example_exact_attribution(staff_db, q1):
    out = io.StringIO()
    started = time.monotonic()
    code = run(Invocation(command="shapley", all_facts=True, method="exact",
                          **DATA_ARGS), stdout=out)
    elapsed = time.monotonic() - started
    assert code == 0
    payload = json.loads(out.getvalue())
    got = {(r["relation"], tuple(r["args"])): Fraction(r["value"])
           for r in payload["facts"]}
    assert got == STAFF_Q1_VALUES  # exact rationals, zero tolerance
    # the frozen table itself is anchored to the enumeration oracle; in
    # particular both Adam registrations come out at 37/210
    oracle = {f.key: v for f, v in brute_shapley_all(staff_db, q1).items()}
    assert oracle == STAFF_Q1_VALUES
    assert oracle[("Reg", ("Adam", "OS"))] == Fraction(37, 210)
    assert elapsed < 1.0


def test_02_attribution_sums_to_truth_difference():
    hierarchical_covered = 0
    for seed in range(200):
        rng = random.Random(1000 + seed)
        db, query = random_instance(rng, max_endo=10)
        expected = Fraction(int(eval_boolean(db.facts, query))
                            - int(eval_boolean(db.exogenous, query)))
        values = brute_shapley_all(db, query)
        assert sum(values.values(), Fraction(0)) == expected
        if classify(query).kind is VerdictKind.PTIME_HIERARCHICAL:
            hierarchical_covered += 1
            fast = shapley_exact_all(db, query)
            assert sum(fast.values(), Fraction(0)) == expected
    assert hierarchical_covered >= 20

    # same identity through the exogenous-relation rewrite
    for seed in range(30):
        rng = random.Random(1500 + seed)
        db, query = random_exo_rewrite_instance(rng, max_endo=8)
        expected = Fraction(int(eval_boolean(db.facts, query))
                            - int(eval_boolean(db.exogenous, query)))
        new_db, new_rule, _ = rewrite(db, query)
        assert sum(shapley_exact_all(new_db, new_rule).values(),
                   Fraction(0)) == expected


def test_03_exact_engine_matches_enumeration_oracle():
    started = time.monotonic()
    nontrivial = 0
    for seed in range(200):
        rng = random.Random(2000 + seed)
        db, query = random_hierarchical_instance(rng, max_endo=10)
        assert (count_satisfying_subsets(db, query)
                == brute_count_satisfying(db, query))
        expected = brute_shapley_all(db, query)
        assert shapley_exact_all(db, query) == expected
        # the single-fact entry point agrees fact by fact
        for fact, value in expected.items():
            assert shapley_exact(db, query, fact) == value
        nontrivial += any(expected.values())
    assert time.monotonic() - started < 60.0
    # most draws value every fact at 0; 51 of these 200 do not
    assert nontrivial >= 45


def test_04_rewrite_engine_matches_enumeration_oracle(staff_db_exo,
                                                      staff_schema_exo):
    q2 = parse_query(Q2, staff_schema_exo)
    expected = brute_shapley_all(staff_db_exo, q2)
    for fact, value in expected.items():
        assert shapley_exo(staff_db_exo, q2, fact) == value

    # most draws of the general generator value every fact at 0; the
    # Q2-shaped one gives nonzero values and drops facts, with a floor
    nontrivial = 0
    for seed in range(100):
        for generator in (random_exo_rewrite_instance, random_q2_instance):
            rng = random.Random(4000 + seed)
            db, query = generator(rng, max_endo=8)
            want = {f.key: v
                    for f, v in brute_shapley_all(db, query).items()}
            got = shapley_exo_all(db, query)
            assert {f.key: v for f, v in got.items()} == want
            trace = rewrite(db, query)[2]
            # replay the trace one step at a time: no step may move any
            # value, and a fact a step drops has value 0
            cur_db, cur_rule = db, single_disjunct(query)
            for step in trace.steps:
                cur_db, cur_rule, _ = apply_step(cur_db, cur_rule, step,
                                                 trace.domain)
                after = {f.key: v for f, v
                         in brute_shapley_all(cur_db, cur_rule).items()}
                assert {**dict.fromkeys(want, 0), **after} == want
            nontrivial += (any(want.values())
                           and cur_db.n_endogenous < db.n_endogenous)
    assert nontrivial >= 15


def test_05_vanishing_family_exact_values():
    pinned = [Fraction(1, 6), Fraction(1, 30), Fraction(1, 140),
              Fraction(1, 630), Fraction(1, 2772), Fraction(1, 12012)]
    for n, want in zip(range(1, 7), pinned):
        instance = gen_gap_instance(n)
        assert want == Fraction(factorial(n) ** 2, factorial(2 * n + 1))
        assert instance.expected_value == want
        got = brute_shapley(instance.db, instance.query, instance.fact)
        assert got == want
        # tiny but never zero: the value hides below 2^-n yet survives
        assert 0 < got <= Fraction(1, 2 ** n)


def test_06_additive_sampling_guarantee(staff_db, q1):
    target = Fraction(-3, 28)
    epsilon = Fraction(1, 20)
    fact = staff_fact(staff_db, "TA", "Adam")
    started = time.monotonic()
    misses = 0
    for seed in range(200):
        plan = make_plan(0.05, 0.1, seed=seed)
        assert plan.samples == 2397
        estimates, plan = shapley_additive_fpras(staff_db, q1, plan)
        if abs(estimates[fact] - target) > epsilon:
            misses += 1
    # the guarantee promises at most a delta=0.1 failure rate; allow slack
    assert misses <= 30
    assert time.monotonic() - started < 30.0


def test_07_relevance_matches_enumeration_and_nonzeroness(
        mixed_polarity_db):
    facts_checked = 0
    for seed in range(200):
        rng = random.Random(5000 + seed)
        db, query = random_instance(rng, max_endo=10,
                                    polarity_consistent=True)
        values = brute_shapley_all(db, query)
        for fact in db.endogenous:
            fast = relevance(db, query, fact)
            slow = brute_relevance(db, query, fact)
            assert fast.pos_relevant == slow.pos_relevant
            assert fast.neg_relevant == slow.neg_relevant
            assert fast.relevant == (values[fact] != 0)
            assert shapley_is_zero(db, query, fact) == (values[fact] == 0)
            facts_checked += 1
    assert facts_checked >= 200

    # mixed polarity: enumeration still decides, the fast path refuses
    query = parse_query(QRSTNR, mixed_polarity_db.schema)
    fact = staff_fact(mixed_polarity_db, "T", "c")
    verdict = brute_relevance(mixed_polarity_db, query, fact)
    assert verdict.pos_relevant
    world = tuple(mixed_polarity_db.exogenous) + verdict.pos_witness
    assert not eval_boolean(world, query)
    assert eval_boolean(world + (fact,), query)
    with pytest.raises(NotPolarityConsistentError):
        shapley_is_zero(mixed_polarity_db, query, fact)


def test_08_lifted_probability_matches_enumeration(staff_schema_exo):
    for seed in range(100):
        rng = random.Random(6000 + seed)
        db, query = random_prob_instance(rng, max_uncertain=12)
        assert prob_eval_hierarchical(db, query) == brute_prob(db, query)

    # certain background relations are rewritten away before pricing
    db = parse_facts(
        """
        prob 1 Stud(Adam)
        prob 1 Stud(Ben)
        prob 1 Course(AI, CS)
        prob 1 Course(OS, Sem)
        prob 1/2 TA(Adam)
        prob 3/4 TA(Ben)
        prob 1/2 Reg(Adam, OS)
        prob 1/4 Reg(Adam, AI)
        prob 7/8 Reg(Ben, OS)
        """,
        staff_schema_exo,
    )
    q2 = parse_query(Q2, staff_schema_exo)
    assert prob_eval(db, q2) == brute_prob(db, q2)


def test_09_classification_landscape(staff_schema, staff_schema_exo):
    def kind_of(text, schema=None, exogenous=()):
        return classify(with_exogenous(
            single_disjunct(parse_query(text, schema)), exogenous))

    assert (kind_of("q() :- Stud(x), not TA(x), Reg(x, y).",
                    staff_schema).kind
            is VerdictKind.PTIME_HIERARCHICAL)

    for text in (Q2, Q3):
        verdict = kind_of(text, staff_schema)
        assert verdict.kind is VerdictKind.HARD_NON_HIERARCHICAL
        assert verdict.witness is not None  # offending atom triplet

    assert (kind_of(Q2, staff_schema_exo).kind
            is VerdictKind.PTIME_EXO_REWRITE)
    assert (kind_of(AUTHOR_Q, exogenous=AUTHOR_X).kind
            is VerdictKind.PTIME_EXO_REWRITE)
    assert (kind_of(NOPATH_Q, exogenous=SP_X).kind
            is VerdictKind.PTIME_EXO_REWRITE)
    assert (kind_of(GAIFMAN_QPRIME, exogenous=GAIFMAN_QPRIME_X).kind
            is VerdictKind.PTIME_EXO_REWRITE)

    for text, exogenous in ((PATH_QPRIME, SP_X), (GAIFMAN_Q, GAIFMAN_Q_X)):
        verdict = kind_of(text, exogenous=exogenous)
        assert verdict.kind is VerdictKind.HARD_NON_HIER_PATH
        assert verdict.witness is not None  # obstructing variable path

"""Relevance decisions: polynomial algorithms vs enumeration, witnesses."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (QRSTNR, random_instance, random_union_instance,
                      staff_fact)
from shapfact.errors import NotPolarityConsistentError
from shapfact.model import (Database, Fact, Provenance, RelationSym,
                            disjuncts_of)
from shapfact.naive import brute_relevance, brute_shapley, eval_boolean
from shapfact.parsing import (format_query, parse_facts, parse_query,
                              parse_schema)
from shapfact.relevance import relevance, shapley_is_zero
from shapfact.structure import relation_polarities


def replay(db, query, witness, fact):
    """Check that a returned witness actually flips the query."""
    world = tuple(db.exogenous) + tuple(witness.coalition)
    before = eval_boolean(world, query)
    after = eval_boolean(world + (fact,), query)
    if witness.side == "positive":
        return (not before) and after
    return before and not after


def test_staff_q1_relevance(staff_db, q1):
    ta_adam = staff_fact(staff_db, "TA", "Adam")
    result = relevance(staff_db, q1, ta_adam)
    assert result.neg_relevant and not result.pos_relevant
    assert replay(staff_db, q1, result.witness, ta_adam)

    reg = staff_fact(staff_db, "Reg", "Caroline", "DB")
    result = relevance(staff_db, q1, reg)
    assert result.pos_relevant and not result.neg_relevant
    assert replay(staff_db, q1, result.witness, reg)

    ta_david = staff_fact(staff_db, "TA", "David")
    result = relevance(staff_db, q1, ta_david)
    assert not result.relevant and result.witness is None


def test_zeroness_matches_values(staff_db, q1):
    for fact in staff_db.endogenous:
        zero = shapley_is_zero(staff_db, q1, fact)
        assert zero == (brute_shapley(staff_db, q1, fact) == 0)


def test_polarity_gate():
    q = parse_query(QRSTNR)
    schema = parse_schema("relation R/1\nrelation S/4\nrelation T/1")
    db = parse_facts("endo T(c)\nexo R(c)\nexo S(d, d, c, c)", schema)
    fact = db.get("T", ("c",))
    for fn in (relevance, shapley_is_zero):
        with pytest.raises(NotPolarityConsistentError):
            fn(db, q, fact)


def test_mixed_polarity_fixture_via_enumeration(mixed_polarity_db):
    """The CNF gadget is out of reach for the polynomial algorithms but
    not for enumeration: the distinguished fact is positively relevant and
    its witness replays."""
    q = parse_query(QRSTNR, mixed_polarity_db.schema)
    t_c = mixed_polarity_db.get("T", ("c",))
    result = brute_relevance(mixed_polarity_db, q, t_c)
    assert result.pos_relevant
    world = tuple(mixed_polarity_db.exogenous) + tuple(result.pos_witness)
    assert not eval_boolean(world, q)
    assert eval_boolean(world + (t_c,), q)


def test_agreement_with_enumeration_on_random_instances():
    rng = random.Random(31337)
    disagreements = []
    checked = 0
    for _ in range(60):
        db, query = random_instance(rng, max_endo=7,
                                    polarity_consistent=True)
        for fact in db.endogenous:
            checked += 1
            expected = brute_relevance(db, query, fact)
            got = relevance(db, query, fact)
            if (got.pos_relevant, got.neg_relevant) != (
                    expected.pos_relevant, expected.neg_relevant):
                disagreements.append((query, fact))
            if got.witness is not None:
                assert replay(db, query, got.witness, fact)
    assert checked > 100
    assert disagreements == []


def test_relevance_iff_nonzero_value():
    rng = random.Random(90210)
    for _ in range(40):
        db, query = random_instance(rng, max_endo=7,
                                    polarity_consistent=True)
        for fact in db.endogenous:
            assert relevance(db, query, fact).relevant \
                == (brute_shapley(db, query, fact) != 0)
            assert shapley_is_zero(db, query, fact) \
                == (brute_shapley(db, query, fact) == 0)


def test_union_relevance_is_disjunct_wise():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(a)\nendo S(a)", schema)
    q = parse_query("q() :- R(x).\nq() :- S(x).", schema)
    for fact in db.endogenous:
        assert relevance(db, q, fact).relevant
        assert brute_relevance(db, q, fact).relevant


def test_union_keeps_negated_facts_of_every_rule():
    """C(c1, c0) fires the first rule, but the empty coalition already
    satisfies the second; only a coalition holding E(c2), which the second
    rule negates, shows the flip."""
    schema = parse_schema("relation A/2\nrelation B/1\nrelation C/2\n"
                          "relation E/1")
    db = parse_facts("exo A(c2, c2)\nendo C(c1, c0)\nendo E(c2)", schema)
    q = parse_query("q() :- C('c1', x), not B(x).\n"
                    "q() :- A(x, y), not E('c2').", schema)
    fact = db.get("C", ("c1", "c0"))
    result = relevance(db, q, fact)
    assert result.pos_relevant and not result.neg_relevant
    assert result.witness.coalition == (db.get("E", ("c2",)),)
    assert replay(db, q, result.witness, fact)
    assert brute_shapley(db, q, fact) == Fraction(1, 2)
    assert not shapley_is_zero(db, q, fact)


def test_union_agreement_with_enumeration():
    rng = random.Random(2026)
    disagreements = []
    witnesses: Counter[str] = Counter()
    checked = 0
    for _ in range(300):
        db, query = random_union_instance(rng)
        for fact in db.endogenous:
            checked += 1
            expected = brute_relevance(db, query, fact)
            got = relevance(db, query, fact)
            if (got.pos_relevant, got.neg_relevant) != (
                    expected.pos_relevant, expected.neg_relevant):
                disagreements.append((format_query(query), str(fact)))
            if got.witness is not None:
                assert replay(db, query, got.witness, fact)
                witnesses[got.witness.side] += 1
                witnesses["second rule"] += got.witness.disjunct == 1
    assert disagreements == []
    # the draws must keep reaching both sides and the second rule
    assert checked > 1000
    assert witnesses["positive"] >= 150
    assert witnesses["negative"] >= 20
    assert witnesses["second rule"] >= 80


def test_one_scan_per_rule_in_the_fact_s_direction(staff_db, q1,
                                                     monkeypatch):
    """A fact can flip a polarity-consistent query only the way its
    relation's polarity says, so each call scans each rule it reaches once,
    on that side, and stops at the first witness."""
    module = sys.modules[relevance.__module__]
    real, sides = module._assignments, []

    def spy(rule, fact, side, index):
        sides.append(side)
        return real(rule, fact, side, index)

    monkeypatch.setattr(module, "_assignments", spy)
    rng = random.Random(77)
    draws = [(staff_db, q1)] + [random_union_instance(rng)
                                for _ in range(40)]
    reached_second = 0
    for db, query in draws:
        polarity = relation_polarities(query)
        for fact in db.endogenous:
            sides.clear()
            witness = relevance(db, query, fact).witness
            reached = (len(disjuncts_of(query)) if witness is None
                       else witness.disjunct + 1)
            side = polarity.get(fact.relation.name, "positive")
            assert sides == [side] * reached
            reached_second += reached == 2
    assert reached_second >= 100  # 135 calls at seed 77


def test_facts_no_atom_names_change_no_result():
    """Adding facts of a relation the query never names leaves every
    original fact's result, witness included, as it was, and the added
    endogenous facts are relevant to neither engine."""
    rng = random.Random(4242)
    original = relevant = added = 0
    for draw in range(300):
        db, query = (random_union_instance(rng) if draw % 2 else
                     random_instance(rng, max_endo=7,
                                     polarity_consistent=True))
        before = {f: relevance(db, query, f) for f in db.endogenous}
        extra = RelationSym("N", rng.choice((1, 2)))
        facts = {}
        for _ in range(rng.randint(1, 4)):
            args = tuple(rng.choice(("c0", "c1", "c2"))
                         for _ in range(extra.arity))
            facts[args] = Fact(extra, args, rng.choice(list(Provenance)))
        grown = Database(db.schema.extended([extra]),
                         db.facts + tuple(facts.values()))
        for fact in grown.endogenous:
            if fact.relation == extra:
                assert not relevance(grown, query, fact).relevant
                assert not brute_relevance(grown, query, fact).relevant
                added += 1
            else:
                assert relevance(grown, query, fact) == before[fact]
                original += 1
                relevant += before[fact].relevant
    # seed 4242 gives 990 original facts, 177 of them relevant, and 315
    # added ones
    assert original >= 800 and relevant >= 120 and added >= 250

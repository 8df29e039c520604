"""The shared recursion's root splits pool the groups that fail in every
world: a root value without a fact of some positive atom."""

import random

from conftest import (Q2, random_exo_rewrite_instance,
                      random_hierarchical_instance, random_prob_instance)
from shapfact import exact
from shapfact.decompose import bucket_facts, weighted_count
from shapfact.exact import shapley_exact_all
from shapfact.model import Var
from shapfact.naive import brute_shapley_all
from shapfact.parsing import parse_query
from shapfact.prob import brute_prob, fact_probability, prob_eval
from shapfact.rewriting import rewrite, shapley_exo_all


def _pooled(db, rule):
    """The facts of ``db`` that unify with an atom of ``rule`` but reach no
    ground atom of its recursion: the free facts of its root splits.
    Without pooling, every fact that unifies reaches its ground atom."""
    reached = set()
    counting = exact._ground(db.endogenous)

    def ground(atom, fact):
        reached.add(fact)
        return counting(atom, fact)

    weighted_count(rule, db.facts, exact._binomials(), ground)
    (routed,), _free = bucket_facts(rule.atoms, [range(len(rule.atoms))],
                                    db.facts)
    return [fact for fact in routed if fact not in reached]


def test_exact_values_match_brute_force_where_groups_are_pooled():
    rng = random.Random(14001)
    pooled = 0
    for _ in range(300):
        db, rule = random_hierarchical_instance(rng, max_endo=8)
        expected = brute_shapley_all(db, rule)
        assert shapley_exact_all(db, rule) == expected
        pooled += (any(fact.endogenous for fact in _pooled(db, rule))
                   and any(expected.values()))
    assert pooled >= 15


def test_rewrite_then_exact_matches_brute_force_where_groups_are_pooled():
    rng = random.Random(14002)
    pooled = 0
    for _ in range(300):
        db, rule = random_exo_rewrite_instance(rng, max_endo=8)
        expected = brute_shapley_all(db, rule)
        assert shapley_exo_all(db, rule) == expected
        new_db, new_rule, _trace = rewrite(db, rule)
        pooled += (any(fact.endogenous for fact in _pooled(new_db, new_rule))
                   and any(expected.values()))
    assert pooled >= 12


def test_lifted_probability_matches_brute_force_where_groups_are_pooled():
    rng = random.Random(14003)
    pooled = 0
    for _ in range(300):
        db, rule = random_prob_instance(rng, max_uncertain=10)
        expected = brute_prob(db, rule)
        assert prob_eval(db, rule) == expected
        pooled += (any(0 < fact_probability(fact) < 1
                       for fact in _pooled(db, rule))
                   and expected > 0)
    assert pooled >= 12


def test_staff_q2_recursion_grounds_only_registered_students(staff_db_exo):
    db, rule, _trace = rewrite(staff_db_exo,
                               parse_query(Q2, staff_db_exo.schema))
    # x, the root variable, occurs in every atom of the rewritten rule
    root = {atom.relation.name: atom.terms.index(Var("x"))
            for atom in rule.atoms}
    values = {fact.args[root[fact.relation.name]] for fact in db.facts
              if fact.relation.name in root}
    registered = {fact.args[root["Reg"]] for fact in db.facts
                  if fact.relation.name == "Reg"}
    grounded = set()
    counting = exact._ground(db.endogenous)

    def ground(atom, fact):
        if fact is not None:
            grounded.add(fact.args[root[atom.relation.name]])
        return counting(atom, fact)

    weighted_count(rule, db.facts, exact._binomials(), ground)
    assert grounded == registered
    # TA(David) holds a root value without a registration
    assert "David" in values - registered

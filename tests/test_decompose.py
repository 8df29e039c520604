"""The shared recursion's root splits pool the groups that fail in every
world: a root value without a fact of some positive atom."""

import random
from fractions import Fraction

from conftest import (Q2, random_exo_rewrite_instance,
                      random_hierarchical_instance, random_prob_instance)
from shapfact import exact
from shapfact.decompose import bucket_facts, weighted_count
from shapfact.exact import count_satisfying_subsets, shapley_exact_all
from shapfact.model import (CQNeg, Database, Fact, Provenance, RelationSym,
                            Schema, Var, validate_database)
from shapfact.naive import brute_count_satisfying, brute_shapley_all
from shapfact.parsing import parse_query
from shapfact.prob import brute_prob, fact_probability, prob_eval
from shapfact.relevance import relevance
from shapfact.rewriting import rewrite, shapley_exo_all
from shapfact.structure import VerdictKind, classify


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


def test_a_rule_with_no_atoms_holds_in_every_world():
    r, s = RelationSym("R", 1), RelationSym("S", 1)
    endogenous = [Fact(r, ("a",), probability=Fraction(1, 2)), Fact(r, ("b",))]
    db = Database(Schema([r, s]),
                  endogenous + [Fact(s, ("c",), Provenance.EXOGENOUS)])
    rule = CQNeg(())
    assert count_satisfying_subsets(db, rule) == [1, 2, 1]
    assert brute_count_satisfying(db, rule) == [1, 2, 1]
    for values in (shapley_exact_all(db, rule), shapley_exo_all(db, rule),
                   brute_shapley_all(db, rule)):
        assert values == dict.fromkeys(endogenous, 0)
    assert prob_eval(db, rule) == brute_prob(db, rule) == 1
    assert classify(rule).kind is VerdictKind.PTIME_HIERARCHICAL
    assert all(relevance(db, rule, fact).witness is None
               for fact in endogenous)


def test_an_empty_count_is_a_fresh_vector():
    """A rule with no atoms over an empty database counts [1].  The vector
    is the caller's own: without ``weighted_count``'s zero-atom return it
    would be the module's shared empty product, so appending to one
    count's vector would change every later one."""
    db = Database(Schema([]), [])
    counted = count_satisfying_subsets(db, CQNeg(()))
    assert counted == [1]
    counted.append(7)
    assert count_satisfying_subsets(db, CQNeg(())) == [1]


def test_a_fact_of_another_arity_reaches_no_ground_atom():
    """A database built in code may hold a fact whose arity its relation
    does not declare; routing matches it against no atom of the declared
    arity, and the brute-force join skips it too."""
    declared = RelationSym("R", 1)
    short = Fact(declared, ("a",))
    long = Fact(RelationSym("R", 2), ("a", "b"))
    db = Database(Schema([declared]), [short, long])
    query = parse_query("q() :- R(x).")
    expected = {short: 1, long: 0}
    assert shapley_exact_all(db, query) == expected
    assert brute_shapley_all(db, query) == expected
    assert prob_eval(db, query) == 1
    assert validate_database(db) == ["fact R(a, b): arity 2 != declared 1"]

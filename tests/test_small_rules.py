"""The dichotomy, checked on every small rule.

The rules are every self-join-free rule of one to three atoms over the
relations A/1, B/1, C/2 and D/2, with the variables x, y and z, safe
negation, and each relation exogenous or not.  Each is counted once up to
renaming its variables and swapping A with B or C with D: 888 rules.
Each rule gets a few seeded small databases, on which

* ``shapley_exact_all`` accepts exactly the ``PTimeHierarchical`` rules,
  and ``shapley_exo_all`` and lifted ``prob_eval`` exactly the two PTIME
  kinds; the others refuse;
* every accepted value equals ``brute_shapley_all``, and every lifted
  probability ``brute_prob``.

The named queries and ``RULE_SHAPES`` pick rules by hand; this sweep
takes every rule of its size instead, such as a repeated variable under
negation (``not C(x, x)``) or a hierarchical rule over an exogenous
relation, which the exact engine counts as it stands and the exo engine
rewrites first."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from shapfact.errors import RefusedError
from shapfact.exact import shapley_exact_all
from shapfact.model import (Atom, CQNeg, Database, Fact, Provenance,
                            RelationSym, Schema, Var)
from shapfact.naive import brute_shapley_all
from shapfact.prob import brute_prob, prob_eval
from shapfact.rewriting import shapley_exo_all
from shapfact.structure import VerdictKind, classify

ARITY = {"A": 1, "B": 1, "C": 2, "D": 2}
VARIABLES = ("x", "y", "z")
# the renamings of relations that keep every arity
SWAPS = ({}, {"A": "B", "B": "A"}, {"C": "D", "D": "C"},
         {"A": "B", "B": "A", "C": "D", "D": "C"})
DOMAIN = ("a", "b", "c")
PTIME = {VerdictKind.PTIME_HIERARCHICAL, VerdictKind.PTIME_EXO_REWRITE}

# a rule: (relation, variables, negated, exogenous) per atom, sorted by
# relation, so that no two atoms share one
Rule = tuple[tuple[str, tuple[str, ...], bool, bool], ...]


def _first_occurrence(rule: Rule) -> Rule:
    """``rule`` with its variables renamed x, y, z in order of first
    occurrence: one spelling per renaming of the variables, since the
    atoms' order is fixed by their relations."""
    names: dict[str, str] = {}
    for _, terms, _, _ in rule:
        for v in terms:
            if v not in names:
                names[v] = VARIABLES[len(names)]
    return tuple((r, tuple(names[v] for v in terms), negated, exogenous)
                 for r, terms, negated, exogenous in rule)


def _canonical(rule: Rule) -> Rule:
    return min(_first_occurrence(tuple(sorted(
        (swap.get(r, r), *rest) for r, *rest in rule))) for swap in SWAPS)


def small_rules() -> list[Rule]:
    """Every small rule, once up to renaming, in canonical spelling."""
    literals = {name: list(product(product(VARIABLES, repeat=arity),
                                   (False, True)))
                for name, arity in ARITY.items()}
    rules: set[Rule] = set()
    for size in (1, 2, 3):
        for names in combinations(sorted(ARITY), size):
            for chosen in product(*(literals[name] for name in names)):
                positive = {v for terms, negated in chosen if not negated
                            for v in terms}
                if any(negated and not set(terms) <= positive
                       for terms, negated in chosen):
                    continue
                for exogenous in product((False, True), repeat=size):
                    rule = tuple((name, terms, negated, exo) for name,
                                 (terms, negated), exo
                                 in zip(names, chosen, exogenous))
                    if _first_occurrence(rule) == rule:
                        rules.add(_canonical(rule))
    return sorted(rules)


def _instance(rng: random.Random, rule: Rule) -> tuple[Database, CQNeg]:
    """The rule over seeded facts on three constants: at most six
    endogenous facts, each with probability 1/3 or 2/3; the others, and
    every fact of an exogenous relation, exogenous and certain."""
    relations = {name: RelationSym(name, ARITY[name], exogenous)
                 for name, _, _, exogenous in rule}
    query = CQNeg(tuple(Atom(relations[name], tuple(map(Var, terms)),
                             negated) for name, terms, negated, _ in rule))
    facts = []
    budget = 6
    for rel in relations.values():
        chance = 0.6 if rel.arity == 1 else 0.35
        for args in product(DOMAIN, repeat=rel.arity):
            if rng.random() >= chance:
                continue
            if not rel.exogenous_only and budget and rng.random() < 0.75:
                budget -= 1
                facts.append(Fact(rel, args, Provenance.ENDOGENOUS,
                                  rng.choice((Fraction(1, 3),
                                              Fraction(2, 3)))))
            else:
                facts.append(Fact(rel, args, Provenance.EXOGENOUS))
    return Database(Schema(relations.values()), facts), query


def _accepts(engine, db: Database, query: CQNeg):
    try:
        return engine(db, query)
    except RefusedError:
        return None


def test_the_canonical_rules_are_the_small_rules_up_to_renaming():
    rules = small_rules()
    assert len(rules) == 888
    assert all(_canonical(rule) == rule for rule in rules)


def test_engines_accept_exactly_their_verdicts_and_match_the_oracles():
    rng = random.Random(26002)
    kinds: Counter = Counter()
    nonzero: Counter = Counter()
    for rule in small_rules():
        kind = None
        valued = False
        for _ in range(2):
            db, query = _instance(rng, rule)
            kind = classify(query).kind
            expected = brute_shapley_all(db, query)
            exact = _accepts(shapley_exact_all, db, query)
            exo = _accepts(shapley_exo_all, db, query)
            lifted = _accepts(prob_eval, db, query)
            assert (exact is not None) == (
                kind is VerdictKind.PTIME_HIERARCHICAL), rule
            assert (exo is not None) == (lifted is not None) == (
                kind in PTIME), rule
            if exact is not None:
                assert exact == expected, rule
            if exo is not None:
                assert exo == expected, rule
                assert lifted == brute_prob(db, query), rule
            valued = valued or any(expected.values())
        kinds[kind] += 1
        nonzero[kind] += valued
    assert kinds == {VerdictKind.PTIME_HIERARCHICAL: 672,
                     VerdictKind.PTIME_EXO_REWRITE: 162,
                     VerdictKind.HARD_NON_HIER_PATH: 27,
                     VerdictKind.HARD_NON_HIERARCHICAL: 27}
    # rules that some draw values above or below 0: 354, 85, 25 and 22
    assert nonzero[VerdictKind.PTIME_HIERARCHICAL] >= 320
    assert nonzero[VerdictKind.PTIME_EXO_REWRITE] >= 75
    assert nonzero[VerdictKind.HARD_NON_HIER_PATH] >= 22
    assert nonzero[VerdictKind.HARD_NON_HIERARCHICAL] >= 19


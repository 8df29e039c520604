"""The dichotomy, checked on every small rule.

The rules are every self-join-free rule over the relations A/1, B/1, C/2
and D/2, with the variables x, y and z, safe negation, and each relation
exogenous or not: of one to three atoms, and of four atoms, one per
relation.  Each is counted once up to renaming its variables and swapping
A with B or C with D: 888 rules of one to three atoms and 3,812 of four.
Each rule gets seeded small databases (two per rule of up to three atoms,
one per four-atom rule), on which

* ``shapley_exact_all`` accepts exactly the ``PTimeHierarchical`` rules,
  and ``shapley_exo_all`` and lifted ``prob_eval`` exactly the two PTIME
  kinds; the others refuse;
* every accepted value equals ``brute_shapley_all``, and every lifted
  probability ``brute_prob``;
* ``relevance`` agrees with ``brute_relevance`` on every endogenous fact,
  in both directions, and each witness it returns flips the query.

The named queries and ``RULE_SHAPES`` pick rules by hand; this sweep
takes every rule of its size instead, such as a repeated variable under
negation (``not C(x, x)``) or a hierarchical rule over an exogenous
relation, which the exact engine counts as it stands and the exo engine
rewrites first.  The four-atom rules give the rewrite every shape it has
at this size: two filter steps on one anchor, a component of several
atoms, and a filter component with atoms of both signs."""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from shapfact.errors import RefusedError
from shapfact.exact import shapley_exact_all
from shapfact.model import (Atom, CQNeg, Database, Fact, Provenance,
                            RelationSym, Schema, Var)
from shapfact.naive import brute_relevance, brute_shapley_all, eval_boolean
from shapfact.prob import brute_prob, prob_eval
from shapfact.relevance import relevance
from shapfact.rewriting import FilterStep, rewrite, shapley_exo_all
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


@cache
def small_rules(sizes: tuple[int, ...] = (1, 2, 3)) -> list[Rule]:
    """Every small rule of ``sizes`` atoms, once up to renaming, in
    canonical spelling."""
    literals = {name: list(product(product(VARIABLES, repeat=arity),
                                   (False, True)))
                for name, arity in ARITY.items()}
    rules: set[Rule] = set()
    for size in sizes:
        for names in combinations(sorted(ARITY), size):
            for chosen in product(*(literals[name] for name in names)):
                positive = {v for terms, negated in chosen if not negated
                            for v in terms}
                if any(negated and not set(terms) <= positive
                       for terms, negated in chosen):
                    continue
                # the spelling of the variables does not depend on which
                # relations are exogenous
                plain = tuple((name, terms, negated, False)
                              for name, (terms, negated) in zip(names, chosen))
                if _first_occurrence(plain) != plain:
                    continue
                for exogenous in product((False, True), repeat=size):
                    rules.add(_canonical(tuple(
                        (name, terms, negated, exo) for (name, terms, negated,
                                                         _), exo
                        in zip(plain, exogenous))))
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


def _flips(db: Database, query: CQNeg, fact: Fact, witness) -> bool:
    """Whether adding ``fact`` to the witness's coalition flips the query
    the way the witness's side says."""
    world = db.exogenous + witness.coalition
    before = eval_boolean(world, query)
    after = eval_boolean(world + (fact,), query)
    return (before, after) == ((False, True) if witness.side == "positive"
                               else (True, False))


def _sweep(rules: list[Rule], draws: int, rng: random.Random
           ) -> tuple[Counter, Counter, Counter]:
    """Check every rule on ``draws`` databases; returns the rules per
    verdict kind, the rules per kind that some draw values above or below
    0, and the relevant facts per side."""
    kinds: Counter = Counter()
    nonzero: Counter = Counter()
    sides: Counter = Counter()
    for rule in rules:
        kind = None
        valued = False
        for _ in range(draws):
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
            for fact in db.endogenous:
                got = relevance(db, query, fact)
                want = brute_relevance(db, query, fact)
                assert (got.pos_relevant, got.neg_relevant) == (
                    want.pos_relevant, want.neg_relevant), (rule, fact)
                if got.witness is not None:
                    assert _flips(db, query, fact, got.witness), (rule, fact)
                    sides[got.witness.side] += 1
                sides["checked"] += 1
        kinds[kind] += 1
        nonzero[kind] += valued
    return kinds, nonzero, sides


def test_the_canonical_rules_are_the_small_rules_up_to_renaming():
    rules, four = small_rules(), small_rules((4,))
    assert (len(rules), len(four)) == (888, 3812)
    assert all(_canonical(rule) == rule for rule in rules + four)
    assert all(len(rule) == 4 for rule in four)


def test_engines_accept_exactly_their_verdicts_and_match_the_oracles():
    kinds, nonzero, sides = _sweep(small_rules(), 2, random.Random(26002))
    assert kinds == {VerdictKind.PTIME_HIERARCHICAL: 672,
                     VerdictKind.PTIME_EXO_REWRITE: 162,
                     VerdictKind.HARD_NON_HIER_PATH: 27,
                     VerdictKind.HARD_NON_HIERARCHICAL: 27}
    # rules that some draw values above or below 0: 354, 85, 25 and 22
    assert nonzero[VerdictKind.PTIME_HIERARCHICAL] >= 320
    assert nonzero[VerdictKind.PTIME_EXO_REWRITE] >= 75
    assert nonzero[VerdictKind.HARD_NON_HIER_PATH] >= 22
    assert nonzero[VerdictKind.HARD_NON_HIERARCHICAL] >= 19
    # 4,759 relevance checks: 1,159 facts relevant positively, 266
    # negatively
    assert sides["checked"] == 4759
    assert sides["positive"] >= 1000 and sides["negative"] >= 230


def test_four_atom_rules_match_the_oracles():
    """One database per four-atom rule, to keep the sweep short."""
    rules = small_rules((4,))
    kinds, nonzero, sides = _sweep(rules, 1, random.Random(29001))
    assert kinds == {VerdictKind.PTIME_HIERARCHICAL: 1850,
                     VerdictKind.PTIME_EXO_REWRITE: 1262,
                     VerdictKind.HARD_NON_HIER_PATH: 568,
                     VerdictKind.HARD_NON_HIERARCHICAL: 132}
    # rules that their draw values above or below 0: 587, 387, 267 and 83
    assert nonzero[VerdictKind.PTIME_HIERARCHICAL] >= 530
    assert nonzero[VerdictKind.PTIME_EXO_REWRITE] >= 350
    assert nonzero[VerdictKind.HARD_NON_HIER_PATH] >= 240
    assert nonzero[VerdictKind.HARD_NON_HIERARCHICAL] >= 70
    # 12,924 relevance checks: 2,127 facts relevant positively, 703
    # negatively
    assert sides["checked"] == 12924
    assert sides["positive"] >= 1900 and sides["negative"] >= 630


def test_four_atom_rules_give_every_rewrite_shape():
    """Per ``PTimeExoRewrite`` four-atom rule, the shape of its rewrite,
    which does not depend on the facts."""
    shapes: Counter = Counter()
    rng = random.Random(29002)
    for rule in small_rules((4,)):
        db, query = _instance(rng, rule)
        if classify(query).kind is not VerdictKind.PTIME_EXO_REWRITE:
            continue
        steps = rewrite(db, query)[2].steps
        filters = [s for s in steps if isinstance(s, FilterStep)]
        anchors = Counter(s.anchor for s in filters)
        shapes["rules"] += 1
        shapes["two filters on one anchor"] += max(anchors.values(),
                                                   default=0) >= 2
        shapes["multi-atom component"] += any(len(s.component) > 1
                                              for s in steps)
        shapes["filter with both signs"] += any(
            len({a.negated for a in s.component}) == 2 for s in filters)
    assert shapes == {"rules": 1262, "two filters on one anchor": 402,
                      "multi-atom component": 640,
                      "filter with both signs": 246}

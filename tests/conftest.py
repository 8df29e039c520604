"""Shared fixtures: the university running example, the smaller named
queries used across the suite, and seeded random-instance generators.

Everything here is deterministic.  The random builders take an explicit
``random.Random`` so each test controls its own seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Collection

import pytest

from shapfact.model import (Atom, CQNeg, Const, Database, Fact, Provenance,
                            RelationSym, Schema, UCQNeg, Var, active_domain,
                            single_disjunct)
from shapfact.parsing import parse_facts, parse_query, parse_schema
from shapfact.structure import (VerdictKind, classify, is_hierarchical,
                                is_polarity_consistent, is_self_join_free)

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# the university example
# ---------------------------------------------------------------------------

Q1 = "q() :- Stud(x), not TA(x), Reg(x, y)."
Q2 = "q() :- Stud(x), not TA(x), Reg(x, y), not Course(y, CS)."
Q3 = ("q() :- Adv(x, y), Adv(x, z), not TA(y), not TA(z), "
      "Reg(y, IC), Reg(z, DB).")
Q4 = ("q() :- Adv(x, y), Adv(x, z), TA(y), not TA(z), "
      "Reg(z, w), not Reg(y, w).")

# Exact attribution values for Q1 on the staff database, frozen from the
# subset-enumeration oracle (brute_shapley agrees; see test_acceptance).
STAFF_Q1_VALUES = {
    ("TA", ("Adam",)): Fraction(-3, 28),
    ("TA", ("Ben",)): Fraction(-2, 35),
    ("TA", ("David",)): Fraction(0),
    ("Reg", ("Adam", "OS")): Fraction(37, 210),
    ("Reg", ("Adam", "AI")): Fraction(37, 210),
    ("Reg", ("Ben", "OS")): Fraction(27, 140),
    ("Reg", ("Caroline", "DB")): Fraction(13, 42),
    ("Reg", ("Caroline", "IC")): Fraction(13, 42),
}

# |Sat(k)| for Q1 on the staff database, k = 0..8, same oracle.
STAFF_Q1_SAT_COUNTS = [0, 5, 22, 48, 63, 52, 27, 8, 1]


@pytest.fixture(scope="session")
def staff_schema() -> Schema:
    return parse_schema((DATA / "staff_schema.txt").read_text())


@pytest.fixture(scope="session")
def staff_schema_exo() -> Schema:
    return parse_schema((DATA / "staff_schema_exo.txt").read_text())


@pytest.fixture(scope="session")
def staff_db(staff_schema) -> Database:
    return parse_facts((DATA / "staff_facts.txt").read_text(), staff_schema)


@pytest.fixture(scope="session")
def staff_db_exo(staff_schema_exo) -> Database:
    return parse_facts((DATA / "staff_facts.txt").read_text(),
                       staff_schema_exo)


@pytest.fixture(scope="session")
def q1(staff_schema):
    return parse_query(Q1, staff_schema)


@pytest.fixture(scope="session")
def q2(staff_schema):
    return parse_query(Q2, staff_schema)


def with_exogenous(rule: CQNeg, names: Collection[str]) -> CQNeg:
    """``rule`` with the relations in ``names`` also marked exogenous, as a
    schema that declares them ``exogenous`` would parse it."""
    def flagged(rel: RelationSym) -> RelationSym:
        return RelationSym(rel.name, rel.arity,
                           rel.exogenous_only or rel.name in names)

    return CQNeg(tuple(Atom(flagged(a.relation), a.terms, a.negated)
                       for a in rule.atoms), head=rule.head)


def reverse_constants(db: Database, rule: CQNeg
                      ) -> tuple[Database, CQNeg, dict[str, str]]:
    """``db`` and ``rule`` with every constant renamed so that the sorted
    active domain reverses (the smallest constant becomes the largest, and
    so on), and the renaming."""
    constants = active_domain(db, rule)
    names = {c: f"v{len(constants) - i:02d}" for i, c in enumerate(constants)}
    facts = [Fact(f.relation, tuple(names[a] for a in f.args), f.provenance,
                  f.probability) for f in db.facts]
    atoms = tuple(
        Atom(a.relation, tuple(Const(names[t.value]) if isinstance(t, Const)
                               else t for t in a.terms), a.negated)
        for a in rule.atoms)
    return Database(db.schema, facts), CQNeg(atoms, head=rule.head), names


def staff_fact(db: Database, name: str, *args: str) -> Fact:
    found = db.get(name, tuple(args))
    assert found is not None, f"{name}{args} not in fixture database"
    return found


# ---------------------------------------------------------------------------
# named queries from the tractability analysis
# ---------------------------------------------------------------------------

# Two near-identical queries whose exogenous relations S and P connect the
# non-exogenous atoms in structurally different ways; the first is
# tractable, the second is not.
NOPATH_Q = "q() :- not R(x, w), S(z, x), not P(z, w), T(y, w)."
PATH_QPRIME = "q() :- not R(x, w), S(z, x), not P(z, y), T(y, w)."
SP_X = frozenset({"S", "P"})

# Citation counting: only the Author relation is up for debate.
AUTHOR_Q = "q() :- Author(x, y), Pub(x, z), Citations(z, w)."
AUTHOR_X = frozenset({"Pub", "Citations"})

# A six-atom query with an obstructing path (x-z-w-y survives deleting the
# variables of 'not R(x)' and 'T(y, v)') ...
GAIFMAN_Q = ("q() :- not R(x), Q(x, v), S(x, z), U(z, w), "
             "not P(w, y), T(y, v).")
GAIFMAN_Q_X = frozenset({"Q", "S", "P"})

# ... and an eight-atom query with none, despite five exogenous atoms.
GAIFMAN_QPRIME = ("q() :- U(t, r), not T(y), Q(y, w), not V(t), R(x, y), "
                  "not S(x, z), O(z), P(u, y, w).")
GAIFMAN_QPRIME_X = frozenset({"V", "R", "S", "O", "P"})

# Mixed-polarity R makes zero-testing NP-hard even though T itself is
# polarity-consistent.
QRSTNR = "q() :- T(z), not R(x), not R(y), R(z), R(w), S(x, y, z, w)."


@pytest.fixture(scope="session")
def mixed_polarity_db() -> Database:
    """The 4-variable CNF gadget: (x1 v x2) & (~x1 v ~x3) &
    (x3 v x4 v ~x1 v ~x2), encoded as S rows; satisfiable, so T(c) can
    flip the query."""
    schema = parse_schema("relation R/1\nrelation S/4\nrelation T/1")
    return parse_facts(
        """
        exo R(c)
        exo R(a)
        endo R(1)
        endo R(2)
        endo R(3)
        endo R(4)
        exo S(1, 2, a, a)
        exo S(b, b, 1, 3)
        exo S(3, 4, 1, 2)
        exo S(d, d, c, c)
        endo T(c)
        exo T(a)
        exo T(1)
        exo T(2)
        exo T(3)
        exo T(4)
        """,
        schema,
    )


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z", "w")
_CONSTS = ("c0", "c1", "c2")


def _random_atoms(rng: random.Random, *, allow_self_joins: bool,
                  polarity_consistent: bool) -> list[Atom]:
    names = ["A", "B", "C", "D", "E"]
    rng.shuffle(names)
    arities = {n: rng.choice((1, 1, 2, 2, 3)) for n in names}

    def pick_rel(used: list[str]) -> str:
        if allow_self_joins and used and rng.random() < 0.25:
            return rng.choice(used)
        pool = [n for n in names if n not in used] or names
        return rng.choice(pool)

    pos_used: list[str] = []
    atoms: list[Atom] = []
    for _ in range(rng.randint(1, 3)):
        name = pick_rel(pos_used)
        pos_used.append(name)
        terms = tuple(
            Var(rng.choice(_VARS)) if rng.random() < 0.75
            else Const(rng.choice(_CONSTS))
            for _ in range(arities[name])
        )
        atoms.append(Atom(RelationSym(name, arities[name]), terms))

    # negated atoms reuse positive variables only, keeping negation safe
    pos_vars = sorted({v for a in atoms for v in a.variables})
    neg_used: list[str] = []
    for _ in range(rng.randint(0, 2)):
        if polarity_consistent:
            pool = [n for n in names if n not in pos_used]
            if not pool:
                break
            name = rng.choice(pool)
        else:
            name = pick_rel(pos_used + neg_used)
        neg_used.append(name)
        terms = tuple(
            Var(rng.choice(pos_vars))
            if pos_vars and rng.random() < 0.75
            else Const(rng.choice(_CONSTS))
            for _ in range(arities[name])
        )
        atoms.append(Atom(RelationSym(name, arities[name]), terms,
                          negated=True))
    return atoms


def _random_db(rng: random.Random, query: CQNeg, *, max_endo: int,
               exo_names: frozenset[str] = frozenset()) -> Database:
    relations = []
    seen = set()
    for atom in query.atoms:
        if atom.relation.name not in seen:
            seen.add(atom.relation.name)
            relations.append(
                RelationSym(atom.relation.name, atom.relation.arity,
                            atom.relation.name in exo_names))
    schema = Schema(relations)

    facts: list[Fact] = []
    endo_budget = max_endo
    for rel in relations:
        tuples = {tuple(rng.choice(_CONSTS) for _ in range(rel.arity))
                  for _ in range(rng.randint(0, 4))}
        for args in sorted(tuples):
            if rel.exogenous_only or endo_budget == 0 or rng.random() < 0.35:
                provenance = Provenance.EXOGENOUS
            else:
                provenance = Provenance.ENDOGENOUS
                endo_budget -= 1
            facts.append(Fact(rel, args, provenance))
    return Database(schema, facts)


def random_instance(rng: random.Random, *, max_endo: int = 10,
                    allow_self_joins: bool = True,
                    polarity_consistent: bool = False
                    ) -> tuple[Database, CQNeg]:
    """An arbitrary safe rule plus a small database over its relations."""
    while True:
        atoms = _random_atoms(rng, allow_self_joins=allow_self_joins,
                              polarity_consistent=polarity_consistent)
        query = CQNeg(tuple(atoms))
        if polarity_consistent and not is_polarity_consistent(query):
            continue
        return _random_db(rng, query, max_endo=max_endo), query


def random_union_instance(rng: random.Random, *, max_endo: int = 7
                          ) -> tuple[Database, UCQNeg]:
    """A union of two safe rules in which every relation keeps one arity
    and one polarity across both rules, plus a small database over their
    relations."""
    while True:
        rules = tuple(CQNeg(tuple(_random_atoms(rng, allow_self_joins=True,
                                                polarity_consistent=True)))
                      for _ in range(2))
        query = UCQNeg(rules)
        arity: dict[str, int] = {}
        if any(arity.setdefault(a.relation.name, a.relation.arity)
               != a.relation.arity for rule in rules for a in rule.atoms):
            continue
        if not is_polarity_consistent(query):
            continue
        both = CQNeg(rules[0].atoms + rules[1].atoms)
        return _random_db(rng, both, max_endo=max_endo), query


def random_hierarchical_instance(rng: random.Random, *, max_endo: int = 10
                                 ) -> tuple[Database, CQNeg]:
    """Rejection-samples until the rule is hierarchical and self-join-free
    (most small rules are)."""
    while True:
        db, query = random_instance(rng, max_endo=max_endo,
                                    allow_self_joins=False)
        if is_hierarchical(query) and is_self_join_free(query):
            return db, query


def random_exo_rewrite_instance(rng: random.Random, *, max_endo: int = 8
                                ) -> tuple[Database, CQNeg]:
    """A non-hierarchical rule that the exogenous-relation rewrite can
    handle: some relations are exogenous-only and no obstructing path
    connects the remaining atoms."""
    while True:
        db, query = random_instance(rng, max_endo=max_endo,
                                    allow_self_joins=False)
        names = sorted({a.relation.name for a in query.atoms})
        if len(names) < 2:
            continue
        exo_names = frozenset(rng.sample(names, rng.randint(1, len(names) - 1)))
        flagged = with_exogenous(query, exo_names)
        if classify(flagged).kind is not VerdictKind.PTIME_EXO_REWRITE:
            continue
        if is_hierarchical(query):
            continue  # keep only instances where the rewrite actually earns
            # its keep; plain hierarchical ones are covered elsewhere
        rebuilt = _random_db(rng, query, max_endo=max_endo,
                             exo_names=exo_names)
        return rebuilt, flagged


# Rules shaped like Q2: exogenous conditions on x and on y around the
# ordinary atom R that holds both variables.  They cover either polarity of
# each condition, an anchor with a constant or a repeated variable, a
# two-atom exogenous component, and a condition whose first positive
# ordinary holder is T(x), not R.
Q2_SHAPES = {
    "q2": ("relation A/1 exogenous\nrelation T/1\nrelation R/2\n"
           "relation C/2 exogenous",
           "q() :- A(x), not T(x), R(x, y), not C(y, K)."),
    "flipped": ("relation A/1 exogenous\nrelation T/1\nrelation R/2\n"
                "relation C/2 exogenous",
                "q() :- not A(x), T(x), R(x, y), C(y, K)."),
    "constant": ("relation A/1 exogenous\nrelation T/1\nrelation R/3\n"
                 "relation C/2 exogenous",
                 "q() :- A(x), not T(x), R(x, y, K), not C(y, K)."),
    "repeated": ("relation A/1 exogenous\nrelation T/1\nrelation R/3\n"
                 "relation C/2 exogenous",
                 "q() :- A(x), not T(x), R(x, x, y), C(y, K)."),
    "two_atom": ("relation A/1 exogenous\nrelation T/1\nrelation R/2\n"
                 "relation C/2 exogenous\nrelation D/1 exogenous",
                 "q() :- A(x), not T(x), R(x, y), not C(y, z), D(z)."),
}


def random_q2_instance(rng: random.Random, *, max_endo: int = 8
                       ) -> tuple[Database, CQNeg]:
    """A rule of ``Q2_SHAPES`` over random facts on a four-constant domain
    that holds the rules' constant ``K``.

    The exogenous relations get up to three facts each, T up to three and
    R up to six, so that the exogenous conditions both keep and reject R
    facts.  At most ``max_endo`` facts of T and R are endogenous, the
    others exogenous."""
    schema_text, rule = Q2_SHAPES[rng.choice(sorted(Q2_SHAPES))]
    schema = parse_schema(schema_text)
    facts: list[Fact] = []
    endo_budget = max_endo
    for rel in schema.relations:
        most = 6 if rel.name == "R" else 3
        tuples = {tuple(rng.choice(_SHAPE_DOMAIN) for _ in range(rel.arity))
                  for _ in range(rng.randint(1, most))}
        for args in sorted(tuples):
            if not rel.exogenous_only and endo_budget and rng.random() < 0.8:
                endo_budget -= 1
                facts.append(Fact(rel, args, Provenance.ENDOGENOUS))
            else:
                facts.append(Fact(rel, args, Provenance.EXOGENOUS))
    return Database(schema, facts), single_disjunct(parse_query(rule, schema))


def random_prob_instance(rng: random.Random, *, max_uncertain: int = 12
                         ) -> tuple[Database, CQNeg]:
    """Hierarchical self-join-free rule over a database whose facts carry
    independent probabilities (dyadic, at most ``max_uncertain`` strictly
    between 0 and 1)."""
    while True:
        db, query = random_hierarchical_instance(rng, max_endo=max_uncertain)
        facts = []
        uncertain = max_uncertain
        for f in db.facts:
            if f.provenance is Provenance.EXOGENOUS:
                facts.append(f)
                continue
            if uncertain > 0 and rng.random() < 0.8:
                p = Fraction(rng.randint(1, 7), 8)
                uncertain -= 1
            else:
                p = Fraction(rng.choice((0, 1)))
            facts.append(Fact(f.relation, f.args, f.provenance, p))
        return Database(db.schema, facts), query


# Hierarchical self-join-free rules with the features the shared recursion
# must route around: constants, repeated variables, zero-ary atoms, several
# components and nested root splits.  Every schema also declares N/1, which
# no rule uses.
RULE_SHAPES = {
    "constant": ("relation R/2\nrelation S/1",
                 "q() :- R(x, K), not S(x)."),
    "repeated_variable": ("relation R/2\nrelation S/2",
                          "q() :- R(x, x), S(x, y)."),
    "zero_ary": ("relation A/0\nrelation B/0\nrelation R/1",
                 "q() :- A(), R(x), not B()."),
    "two_components": ("relation R/1\nrelation S/1\nrelation T/2\n"
                       "relation U/1",
                       "q() :- R(x), not S(x), T(y, z), U(y)."),
    "nested_with_constant": ("relation R/1\nrelation S/2\nrelation T/3",
                             "q() :- R(x), S(x, y), not T(x, y, K)."),
    "running_example": ("relation Stud/1\nrelation TA/1\nrelation Reg/2",
                        Q1),
    "reversed_negation": ("relation R/2\nrelation S/2\nrelation T/1",
                          "q() :- R(x, y), not S(y, x), T(x)."),
}

_SHAPE_DOMAIN = ("a", "b", "c", "K")
_SHAPE_PROBABILITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def random_shaped_instance(rng: random.Random, shape: str, *,
                           max_endo: int = 8) -> tuple[Database, CQNeg]:
    """The rule of ``RULE_SHAPES[shape]`` over random facts on a
    four-constant domain that holds the rules' constant ``K``.

    Each relation, N included, gets up to three facts, so some facts match
    no atom (N's, a constant other than ``K``, distinct values under a
    repeated variable).  At most ``max_endo`` facts are endogenous; each
    of those carries a probability strictly between 0 and 1, the others
    none (certain), so one database serves the counting, Shapley and
    probability engines."""
    schema_text, rule = RULE_SHAPES[shape]
    schema = parse_schema(schema_text + "\nrelation N/1")
    facts: list[Fact] = []
    endo_budget = max_endo
    for rel in schema.relations:
        tuples = {tuple(rng.choice(_SHAPE_DOMAIN) for _ in range(rel.arity))
                  for _ in range(rng.randint(1, 3))}
        for args in sorted(tuples):
            if endo_budget and rng.random() < 0.7:
                endo_budget -= 1
                facts.append(Fact(rel, args, Provenance.ENDOGENOUS,
                                  rng.choice(_SHAPE_PROBABILITIES)))
            else:
                facts.append(Fact(rel, args, Provenance.EXOGENOUS))
    return Database(schema, facts), single_disjunct(parse_query(rule, schema))

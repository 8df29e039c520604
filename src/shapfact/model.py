"""Data model: relations, facts, databases, and Boolean queries with negation.

A database is a finite set of facts over a relational schema.  Each fact is
either *exogenous* (taken for granted; never attributed a share of the query
answer) or *endogenous* (a candidate cause whose contribution is measured).
Fact identity is content-addressed: two facts are the same fact iff they agree
on relation name and argument tuple; provenance and probability are attributes
of the fact, not part of its identity.

Queries are Boolean conjunctive queries with safe negation (`CQNeg`), or
unions of such (`UCQNeg`) written as repeated rules with the same head.
Evaluation is by homomorphism: the query is true on a fact set ``W`` iff some
assignment of constants to variables sends every positive atom into ``W`` and
no negated atom into ``W``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from . import errors
from .errors import DuplicateFactError, FactNotEndogenousError

#: Relation names generated by the exogenous-facts rewrite start with this
#: prefix; user schemas must not use it.
RESERVED_PREFIX = "__exo_"

#: The characters ``str.splitlines`` breaks a line at.  No constant may
#: hold one, since a fact line could not carry it.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{LINE_BREAKS}]")

#: A constant that fact lines and ``--fact`` write without quotes: one or
#: more letters, digits and ``_``, whatever the first character.
BARE_WORD = r"[A-Za-z0-9_]+"
_BARE_WORD = re.compile(BARE_WORD)
# query text reads a bare word that starts with a lowercase letter as a
# variable, so only the others are bare constants there
_BARE_CONSTANT = re.compile(r"[A-Z_][A-Za-z0-9_]*\Z|[0-9][A-Za-z0-9_]*\Z")


class Provenance(enum.Enum):
    """Whether a fact is taken for granted or is a candidate cause."""

    EXOGENOUS = "exo"
    ENDOGENOUS = "endo"


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    value: str

    def __str__(self) -> str:
        """The constant as query text (see :func:`_written`)."""
        return _written(self.value, _BARE_CONSTANT)


def _written(value: str, bare: re.Pattern) -> str:
    """``value`` as written in text: as is when ``bare`` matches all of
    it, else quoted.  A line break, which no line can carry, is written as
    its escape (``\\n``, ``\\x85``, ...) so that a message naming the
    value stays on one line."""
    if bare.fullmatch(value):
        return value
    return _LINE_BREAK.sub(_escape, quoted(value))


def _escape(m: re.Match) -> str:
    return m[0].encode("unicode_escape").decode("ascii")


def quoted(value: str) -> str:
    """``value`` as a quoted constant: a backslash escapes each ``\\`` and
    ``'``, and the reader drops the backslash before any character."""
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"


Term = Union[Var, Const]


def is_bare_constant(token: str) -> bool:
    """True iff query text reads ``token`` unquoted as a constant: it
    starts with an uppercase letter, a digit or ``_``; a bare word that
    starts with a lowercase letter is a variable."""
    return bool(_BARE_CONSTANT.match(token))


# ---------------------------------------------------------------------------
# schema


@dataclass(frozen=True)
class RelationSym:
    """A relation symbol.  ``exogenous_only`` marks relations whose facts
    are all exogenous (the schema-level default for the rewrite's relation
    set)."""

    name: str
    arity: int
    exogenous_only: bool = False

    def __str__(self) -> str:
        suffix = " exogenous" if self.exogenous_only else ""
        return f"relation {self.name}/{self.arity}{suffix}"


class Schema:
    """An ordered collection of relation symbols, unique by name."""

    def __init__(self, relations: Iterable[RelationSym]):
        self._by_name: dict[str, RelationSym] = {}
        for rel in relations:
            if rel.name in self._by_name:
                raise errors.SchemaSyntaxError(
                    f"relation {rel.name} declared twice")
            self._by_name[rel.name] = rel

    @property
    def relations(self) -> tuple[RelationSym, ...]:
        return tuple(self._by_name.values())

    def __getitem__(self, name: str) -> RelationSym:
        return self._by_name[name]

    def get(self, name: str) -> Optional[RelationSym]:
        return self._by_name.get(name)

    def extended(self, new_relations: Iterable[RelationSym],
                 dropped: Iterable[str] = ()) -> "Schema":
        drop = set(dropped)
        kept = [r for r in self.relations if r.name not in drop]
        return Schema(kept + list(new_relations))


# ---------------------------------------------------------------------------
# atoms and queries


@dataclass(frozen=True)
class Atom:
    relation: RelationSym
    terms: tuple[Term, ...]
    negated: bool = False

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names, unique, in first-occurrence order."""
        seen: dict[str, None] = {}
        for t in self.terms:
            if isinstance(t, Var):
                seen.setdefault(t.name, None)
        return tuple(seen)

    def __str__(self) -> str:
        body = f"{self.relation.name}({', '.join(str(t) for t in self.terms)})"
        return f"not {body}" if self.negated else body


@dataclass(frozen=True)
class CQNeg:
    """One conjunctive rule body (a single disjunct)."""

    atoms: tuple[Atom, ...]
    head: str = "q"

    @property
    def positives(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if not a.negated)

    @property
    def negatives(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if a.negated)

    @property
    def constants(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for a in self.atoms:
            for t in a.terms:
                if isinstance(t, Const):
                    seen.setdefault(t.value, None)
        return tuple(seen)

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.head}() :- {body}."


@dataclass(frozen=True)
class UCQNeg:
    """A union of conjunctive rules; each rule carries the Boolean head,
    which the query reader requires to be the same for all of them."""

    disjuncts: tuple[CQNeg, ...]


Query = Union[CQNeg, UCQNeg]


def disjuncts_of(query: Query) -> tuple[CQNeg, ...]:
    """Uniform view of a query as a tuple of disjuncts."""
    if isinstance(query, CQNeg):
        return (query,)
    return query.disjuncts


def single_disjunct(query: Query) -> CQNeg:
    """Unwrap a query known to consist of a single conjunctive rule."""
    parts = disjuncts_of(query)
    if len(parts) != 1:
        raise errors.UnsupportedQueryError(
            f"expected a single conjunctive rule, got a union of {len(parts)}"
        )
    return parts[0]


# ---------------------------------------------------------------------------
# facts and databases


@dataclass(frozen=True, eq=False)
class Fact:
    relation: RelationSym
    args: tuple[str, ...]
    provenance: Provenance = Provenance.ENDOGENOUS
    probability: Optional[Fraction] = None

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        return (self.relation.name, self.args)

    @property
    def endogenous(self) -> bool:
        return self.provenance is Provenance.ENDOGENOUS

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        """The fact as ``Name(c, ...)``, the way fact lines and ``--fact``
        write it: a constant outside :data:`BARE_WORD` is quoted, and a
        line break in it is written as its escape (see :func:`_written`).
        Every message, table and witness names a fact this way."""
        args = ", ".join(_written(a, _BARE_WORD) for a in self.args)
        return f"{self.relation.name}({args})"


class Database:
    """An immutable set of facts over a schema.

    Facts are deduplicated by content; two facts with the same relation and
    arguments but different provenance or probability are rejected as
    conflicting.  All fact tuples exposed by this class are in canonical
    order (sorted by relation name, then arguments), so every downstream
    computation is deterministic.  ``by_key`` maps each fact's key to the
    stored fact, and ``by_relation`` each relation name to its facts.
    """

    def __init__(self, schema: Schema, facts: Iterable[Fact]):
        self.schema = schema
        by_key: dict[tuple[str, tuple[str, ...]], Fact] = {}
        for fact in facts:
            prior = by_key.setdefault((fact.relation.name, fact.args), fact)
            if prior is not fact and (
                    prior.provenance is not fact.provenance
                    or prior.probability != fact.probability):
                raise DuplicateFactError(
                    f"conflicting duplicate fact {fact}: "
                    f"{prior.provenance.value} vs {fact.provenance.value}",
                    prior, fact)
        self.by_key = by_key
        # keys are unique, so sorting them orders the facts, and the facts
        # of one relation are consecutive
        self.facts: tuple[Fact, ...] = tuple(
            map(by_key.__getitem__, sorted(by_key)))
        endogenous: list[Fact] = []
        exogenous: list[Fact] = []
        starts: dict[str, int] = {}
        endo = Provenance.ENDOGENOUS  # a member lookup is slow in a loop
        for i, fact in enumerate(self.facts):
            (endogenous if fact.provenance is endo else exogenous).append(fact)
            starts.setdefault(fact.relation.name, i)
        self.endogenous = tuple(endogenous)
        self.exogenous = tuple(exogenous)
        ends = [*starts.values(), len(self.facts)][1:]
        self.by_relation = {name: self.facts[start:end] for (name, start), end
                            in zip(starts.items(), ends)}

    @property
    def n_endogenous(self) -> int:
        return len(self.endogenous)

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact.key in self.by_key

    def get(self, relation: str, args: tuple[str, ...]) -> Optional[Fact]:
        return self.by_key.get((relation, args))

    def require_endogenous(self, fact: Fact) -> Fact:
        """The stored copy of ``fact``; raises ``FactNotEndogenousError``
        if the fact is exogenous or absent."""
        stored = self.by_key.get(fact.key)
        if stored is None or not stored.endogenous:
            raise FactNotEndogenousError(
                f"fact {fact} is not an endogenous fact of the database"
            )
        return stored

    def relation_facts(self, name: str) -> tuple[Fact, ...]:
        return self.by_relation.get(name, ())

    def tuples(self, name: str) -> frozenset[tuple[str, ...]]:
        return frozenset(f.args for f in self.by_relation.get(name, ()))

    # -- derived databases --------------------------------------------------

    def with_fact_exogenous(self, fact: Fact) -> "Database":
        """The same database with ``fact`` reclassified as exogenous.  No
        engine calls it; it stays for the benchmark's tracer, which
        patches it by name, until ROADMAP item 1."""
        self._require(fact)
        replaced = [
            Fact(f.relation, f.args, Provenance.EXOGENOUS, f.probability)
            if f == fact else f
            for f in self.facts
        ]
        return Database(self.schema, replaced)

    def without_fact(self, fact: Fact) -> "Database":
        """The same database with ``fact`` removed.  No engine calls it;
        it stays for the benchmark's tracer, which patches it by name,
        until ROADMAP item 1."""
        self._require(fact)
        return Database(self.schema, (f for f in self.facts if f != fact))

    def with_relations_replaced(
        self,
        dropped: Iterable[str],
        new_relations: Iterable[RelationSym],
        new_facts: Iterable[Fact],
    ) -> "Database":
        """Drop whole relations and add fresh ones.  The rewrite builds its
        database in ``rewriting._database`` instead; this stays for the
        benchmark's tracer, which patches it by name, until ROADMAP item
        1."""
        drop = set(dropped)
        schema = self.schema.extended(new_relations, dropped=drop)
        kept = [f for f in self.facts if f.relation.name not in drop]
        return Database(schema, kept + list(new_facts))

    def _require(self, fact: Fact) -> None:
        if fact.key not in self.by_key:
            raise errors.UnknownFactError(
                f"fact {fact} is not in the database")


# ---------------------------------------------------------------------------
# validation and the active domain


def active_domain(db: Database, query: Optional[Query] = None) -> tuple[str, ...]:
    """All constants of the database plus, if given, those of the query,
    sorted.  This is the domain over which the exogenous rewrite ranges the
    variables that no positive exogenous atom binds."""
    values: set[str] = set()
    for fact in db.facts:
        values.update(fact.args)
    if query is not None:
        for disjunct in disjuncts_of(query):
            values.update(disjunct.constants)
    return tuple(sorted(values))


def fact_violations(fact: Fact, schema: Schema) -> list[tuple[type, str]]:
    """Typed violations of one fact against ``schema``: its relation is
    declared, its arity matches, no constant holds a line break, it is not
    endogenous in an exogenous relation, and its probability, if any, lies
    in [0, 1] and is 1 in an exogenous relation."""
    rel = schema.get(fact.relation.name)
    if rel is None:
        return [(errors.UnknownRelationError,
                 f"fact {fact}: relation {fact.relation.name} is not in the "
                 f"schema")]
    problems: list[tuple[type, str]] = []
    if len(fact.args) != rel.arity:
        problems.append((errors.ArityError,
                         f"fact {fact}: arity {len(fact.args)} != "
                         f"declared {rel.arity}"))
    problems += line_break_violations(fact)
    if rel.exogenous_only and fact.endogenous:
        problems.append((errors.ProvenanceError,
                         f"fact {fact}: relation {rel.name} is declared "
                         f"exogenous but the fact is endogenous"))
    if fact.probability is not None and not 0 <= fact.probability <= 1:
        problems.append((errors.BadProbabilityError,
                         f"fact {fact}: probability {fact.probability} "
                         f"outside [0, 1]"))
    elif rel.exogenous_only and fact.probability not in (None, 1):
        problems.append((errors.BadProbabilityError,
                         f"fact {fact}: relation {rel.name} is declared "
                         f"exogenous; its facts must have probability 1"))
    return problems


def line_break_violations(fact: Fact) -> list[tuple[type, str]]:
    """Typed violations: constants of ``fact`` that hold a line break."""
    return [(errors.SchemaSyntaxError,
             f"fact of {fact.relation.name}: constant {arg!r} holds a line "
             f"break")
            for arg in fact.args if _LINE_BREAK.search(arg)]


def reserved_name_violations(name: str) -> list[tuple[type, str]]:
    """Typed violations: ``name`` starts with the rewrite's prefix, or is
    ``not``, which query text reads as negation."""
    if name.startswith(RESERVED_PREFIX):
        why = f"uses the reserved prefix {RESERVED_PREFIX}"
    elif name == "not":
        why = "is reserved for negation"
    else:
        return []
    return [(errors.ReservedNameError, f"relation name {name} {why}")]


def schema_violations(schema: Schema) -> list[tuple[type, str]]:
    """Typed violations: relations with a reserved name."""
    return [problem for rel in schema.relations
            for problem in reserved_name_violations(rel.name)]


def database_violations(db: Database) -> list[tuple[type, str]]:
    """Typed violations: ``(exception class, message)`` pairs."""
    problems = schema_violations(db.schema)
    for fact in db.facts:
        problems += fact_violations(fact, db.schema)
    return problems


def validate_database(db: Database) -> list[str]:
    """Return a list of violations (empty iff the database is valid)."""
    return [msg for _, msg in database_violations(db)]


def query_violations(query: Query,
                     schema: Optional[Schema] = None) -> list[tuple[type, str]]:
    """Typed violations: ``(exception class, message)`` pairs.

    Checks, per disjunct: safety (every variable of a negated atom occurs in
    some positive atom of the same disjunct), arity agreement with the
    relation symbol (and with the schema if one is supplied), and reserved
    relation names.
    """
    problems: list[tuple[type, str]] = []
    for i, disjunct in enumerate(disjuncts_of(query)):
        label = f"rule {i + 1}"
        positive_vars: set[str] = set()
        for atom in disjunct.positives:
            positive_vars.update(atom.variables)
        for atom in disjunct.negatives:
            for v in atom.variables:
                if v not in positive_vars:
                    problems.append((errors.SafetyError,
                                     f"{label}: unsafe variable {v} occurs "
                                     f"only under negation in {atom}"))
        for atom in disjunct.atoms:
            if len(atom.terms) != atom.relation.arity:
                problems.append((errors.ArityError,
                                 f"{label}: atom {atom} has "
                                 f"{len(atom.terms)} arguments, relation "
                                 f"declares {atom.relation.arity}"))
            problems += [(kind, f"{label}: {message}") for kind, message
                         in reserved_name_violations(atom.relation.name)]
            if schema is not None:
                declared = schema.get(atom.relation.name)
                if declared is None:
                    problems.append((errors.UnknownRelationError,
                                     f"{label}: relation "
                                     f"{atom.relation.name} is not in the "
                                     f"schema"))
                elif declared.arity != atom.relation.arity:
                    problems.append((errors.ArityError,
                                     f"{label}: atom {atom} disagrees with "
                                     f"schema arity {declared.arity}"))
    return problems


def validate_query(query: Query, schema: Optional[Schema] = None) -> list[str]:
    """Return a list of violations (empty iff the query is valid)."""
    return [msg for _, msg in query_violations(query, schema)]


def raise_first(problems: list[tuple[type, str]]) -> None:
    """Raise the first violation as its typed exception, if any."""
    if problems:
        exc_type, msg = problems[0]
        if len(problems) > 1:
            msg += f" (and {len(problems) - 1} more problem(s))"
        raise exc_type(msg)

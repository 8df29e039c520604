"""Rewriting away exogenous relations.

Some rules are non-hierarchical only *through* relations whose facts are
all exogenous.  Those relations never change across coalitions, so each
group of exogenous atoms is a fixed condition on the variables it shares
with the rest of the rule, and can be compiled out of the rule, after
which the exact engine applies.

The rewrite takes one step per component of the exogenous atoms, that is
per group of exogenous atoms joined by variables that occur in exogenous
atoms only.  A component's *shared* variables are those also occurring
outside it.  The component *holds* under an assignment of its shared
variables when some homomorphism of its positive atoms into their facts
extends the assignment and sends no negated atom onto a fact.

* A **filter** step applies when a positive ordinary atom, the step's
  *anchor* (the first such atom in the rule), holds every shared
  variable.  The component is then a semi-join on the anchor's facts, or
  an anti-join where it is negated (Yannakakis, "Algorithms for Acyclic
  Database Schemes", VLDB 1981).  Each anchor fact that matches the anchor
  binds the shared variables, and it stays iff the component holds under
  that binding, so no variable ranges over the active domain.  The
  component is evaluated once per step, not once per binding: its
  positive atoms are enumerated once, joined with the anchor facts'
  distinct bindings when they leave a shared variable unbound, and
  projected onto the shared variables.  Each anchor fact is matched
  against the anchor once per rewrite, however many filter steps share
  the anchor.  The other anchor facts are in no satisfying grounding, so
  they are null players and are dropped, and the component's atoms and
  relations go.
* A **materialise** step, the fallback when no positive ordinary atom
  holds the shared variables, replaces the component by one fresh
  exogenous atom.  Its variables are the shared variables, then the other
  variables of the first ordinary atom that contains them all.  Its tuples
  are the assignments under which the component holds, with every
  variable that no positive atom of the component binds ranging over the
  active domain, projected onto the shared variables and padded with
  every active-domain value in the remaining columns.  A component
  sharing no variable becomes a zero-ary guard ("does the component hold
  at all").  A step that would materialise more than :data:`BLOWUP_CAP`
  tuples is refused.

The exogenous relations are the ones the schema declares ``exogenous``.
Every step keeps the truth value of the rule on every coalition of the
facts it keeps, and drops only null players: removing a null player
leaves every other Shapley value and the query's probability unchanged.
:func:`shapley_exo_all` and :func:`shapley_exo` rewrite, then call the
exact engine's entry points, and give each dropped fact its value 0; like
the exact engine they return values only, and :func:`rewrite` returns the
trace of its steps.  The package's tests replay the recorded steps one at
a time and check exactly that.  Step application is a pure function
(:func:`apply_step`): a step holds the atoms it removes and what takes
their place, so the steps of a :class:`RewriteTrace`, applied in order to
the original rule and database over the trace's domain, rebuild the
rewritten ones.  :func:`rewrite` applies its steps to the facts by
relation and builds the rewritten database once, at the end;
:func:`apply_step` builds one per replayed step.  A rule with no
exogenous relation takes no step and gets its database back as it is,
and the trace's domain is computed only when it is read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

from .errors import (
    BlowupExceededError,
    HasNonHierPathError,
    InternalError,
    SelfJoinError,
)
from .exact import shapley_exact, shapley_exact_all
from .model import (
    RESERVED_PREFIX,
    Atom,
    CQNeg,
    Database,
    Fact,
    Provenance,
    Query,
    RelationSym,
    Schema,
    Var,
    active_domain,
    fact_violations,
    raise_first,
    schema_violations,
    single_disjunct,
)
from .naive import _Index, _match, _reader, iter_homomorphisms
from .structure import (
    exogenous_atom_components,
    has_non_hierarchical_path,
    is_hierarchical,
    is_self_join_free,
    resolve_exogenous,
)

#: Refuse any materialise step that would build more tuples than this;
#: read when each step runs.
BLOWUP_CAP = 10_000_000

Relations = dict[str, Sequence[Fact]]


@dataclass(frozen=True)
class FilterStep:
    """One filter step, with enough detail to replay it.

    ``component`` holds the exogenous atoms the step removes, in rule
    order; ``anchor`` is the positive ordinary atom that holds all of
    their shared variables and whose facts the step filters."""

    component: tuple[Atom, ...]
    anchor: Atom


@dataclass(frozen=True)
class MaterialiseStep:
    """One materialise step, with enough detail to replay it.

    ``component`` holds the exogenous atoms the step replaces, in rule
    order.  ``relation`` is the fresh exogenous relation over ``proj_vars``
    (the component's shared variables) followed by ``pad_vars`` (the other
    variables of the ordinary atom that contains them); :attr:`atom` is the
    atom that takes the component's place."""

    component: tuple[Atom, ...]
    relation: RelationSym
    proj_vars: tuple[str, ...]
    pad_vars: tuple[str, ...]

    @property
    def atom(self) -> Atom:
        return Atom(self.relation,
                    tuple(Var(v) for v in self.proj_vars + self.pad_vars))


RewriteStep = Union[FilterStep, MaterialiseStep]


@dataclass(frozen=True)
class RewriteTrace:
    """The rewrite's exogenous relations and steps.  ``sizes`` holds, per
    step, the facts of each relation of its component and the facts the
    step leaves: the anchor facts a filter step keeps, or the tuples a
    materialise step builds.  The sizes are a human-readable record and
    play no role in replay.  ``source`` is the database and query that
    :func:`rewrite` was given, and :attr:`domain` their active domain,
    which materialise steps and replay range over; it is computed when
    first read."""

    exogenous: tuple[str, ...]
    steps: tuple[RewriteStep, ...]
    sizes: tuple[tuple[tuple[int, ...], int], ...]
    source: tuple[Database, Query] = field(repr=False, compare=False)

    @cached_property
    def domain(self) -> tuple[str, ...]:
        return active_domain(*self.source)

    def describe(self) -> str:
        lines = [f"domain size {len(self.domain)}; exogenous relations: "
                 f"{', '.join(self.exogenous) or '(none)'}"]
        for i, (s, (before, after)) in enumerate(
                zip(self.steps, self.sizes), start=1):
            src = " + ".join(map(str, s.component))
            tuples_in = "+".join(map(str, before))
            if isinstance(s, FilterStep):
                lines.append(f"step {i} [filter] {src} on {s.anchor} "
                             f"({tuples_in} tuples in, {after} "
                             f"{s.anchor.relation.name} facts kept)")
            else:
                lines.append(f"step {i} [materialise] {src} -> {s.atom} "
                             f"({tuples_in} tuples in, {after} out)")
        return "\n".join(lines)


def apply_step(db: Database, rule: CQNeg, step: RewriteStep,
               domain: Sequence[str]) -> tuple[Database, CQNeg, int]:
    """Apply one recorded step; returns the new database, the new rule, and
    the number of tuples materialised (0 for a filter step).

    A materialise step refuses with :class:`BlowupExceededError` before
    building any fact when the homomorphisms of the positive atoms, times
    the domain size to the power of the variables they leave unbound,
    exceed :data:`BLOWUP_CAP`."""
    relations = dict(db.by_relation)
    rule = _apply(relations, rule, step, domain, set())
    tuples = (len(relations[step.relation.name])
              if isinstance(step, MaterialiseStep) else 0)
    return _database(db, [step], relations), rule, tuples


def _database(db: Database, steps: Sequence[RewriteStep],
              relations: Relations) -> Database:
    """The database of ``relations`` under ``db``'s schema, less the
    relations of the steps' components and with their fresh ones."""
    schema = db.schema.extended(
        [s.relation for s in steps if isinstance(s, MaterialiseStep)],
        dropped=[a.relation.name for s in steps for a in s.component])
    return Database(schema, itertools.chain.from_iterable(relations.values()))


def _apply(relations: Relations, rule: CQNeg, step: RewriteStep,
           domain: Sequence[str], matched: set[str]) -> CQNeg:
    """Apply ``step`` to the facts by relation, in place, and return the
    new rule.  ``matched`` holds the relations of the anchors whose facts
    have been matched against them."""
    # the rule is self-join-free, so a relation name stands for its atom
    names = [a.relation.name for a in step.component]
    if isinstance(step, FilterStep):
        _filter(relations, step, matched)
        atoms = tuple(a for a in rule.atoms if a.relation.name not in names)
    else:
        relations[step.relation.name] = _materialise(relations, step, domain)
        atoms = tuple(step.atom if a.relation.name == names[0] else a
                      for a in rule.atoms if a.relation.name not in names[1:])
    for name in names:
        relations.pop(name, None)
    return CQNeg(atoms, head=rule.head)


def _split(relations: Relations, component: Sequence[Atom]
           ) -> tuple[list[Atom], _Index, Callable[[dict[str, str]], bool]]:
    """The positive atoms of ``component``, their facts indexed, and a
    test of whether an assignment sends a negated atom of the component
    onto one of its facts."""
    positive = [a for a in component if not a.negated]
    # a relation's facts are distinct and sorted, as the index keeps them
    index = _Index({a.relation.name: [f.args for f in
                                      relations.get(a.relation.name, ())]
                    for a in component})
    # per negated atom, its variables' values in each fact it matches
    hits = []
    for atom in component:
        if atom.negated:
            free, rows = index.candidates(atom, {})
            hits.append((_reader(list(free)),
                         set(map(_reader(list(free.values())), rows))))

    def blocked(h: dict[str, str]) -> bool:
        return any(read(h) in values for read, values in hits)

    return positive, index, blocked if hits else lambda h: False


def _filter(relations: Relations, step: FilterStep, matched: set[str]) -> None:
    """Keep the anchor facts under whose binding the component holds.

    The component is evaluated once: its positive atoms are enumerated,
    joined with the anchor's distinct bindings when they leave a shared
    variable unbound, and projected onto the shared variables.  The
    anchor's facts are matched against it on its first step only; a later
    step on the same anchor reads the facts kept."""
    anchor, component = step.anchor, step.component
    inside = {v for a in component for v in a.variables}
    variables = anchor.variables
    shared = [v for v in variables if v in inside]
    terms = [t.name if isinstance(t, Var) else None for t in anchor.terms]
    at = [terms.index(v) for v in shared]
    facts = relations.get(anchor.relation.name, ())
    if anchor.relation.name not in matched:
        matched.add(anchor.relation.name)
        # an anchor of distinct variables matches every fact of its arity
        width = len(anchor.terms)
        plain = len(variables) == width
        facts = [f for f in facts if (len(f.args) == width if plain else
                                      _match(anchor, f.args, {}) is not None)]
    keys = list(map(_reader(at), (f.args for f in facts)))
    positive, index, blocked = _split(relations, component)
    if not {v for a in positive for v in a.variables}.issuperset(shared):
        # a relation, under the reserved prefix, of the distinct bindings
        positive.append(Atom(RelationSym(RESERVED_PREFIX, len(shared)),
                             tuple(map(Var, shared))))
        index[RESERVED_PREFIX] = sorted(key if len(at) > 1 else (key,)
                                        for key in set(keys))
    read = _reader(shared)
    good = {read(h) for h in iter_homomorphisms(positive, index)
            if not blocked(h)}
    relations[anchor.relation.name] = [f for f, key in zip(facts, keys)
                                       if key in good]


def _materialise(relations: Relations, step: MaterialiseStep,
                 domain: Sequence[str]) -> tuple[Fact, ...]:
    """The fresh relation's facts, sorted."""
    component = step.component
    positive, index, blocked = _split(relations, component)
    bound = {v for a in positive for v in a.variables}
    free = [v for v in dict.fromkeys(v for a in component if a.negated
                                     for v in a.variables)
            if v not in bound]
    width = len(domain) ** (len(free) + len(step.pad_vars))
    homs: list[dict[str, str]] = []
    count = 0
    for h in iter_homomorphisms(positive, index):
        count += 1
        if count * width <= BLOWUP_CAP:
            homs.append(h)
    if count * width > BLOWUP_CAP:
        raise BlowupExceededError(
            f"materialising {' + '.join(map(str, component))} over a domain "
            f"of {len(domain)} values would hold up to {count * width} "
            f"tuples (cap {BLOWUP_CAP})"
        )
    ordered = sorted(domain)
    projected: set[tuple[str, ...]] = set()
    for h in homs:
        for values in itertools.product(ordered, repeat=len(free)):
            h.update(zip(free, values))
            if not blocked(h):
                projected.add(tuple(h[v] for v in step.proj_vars))
    return tuple(
        Fact(step.relation, args + pad, Provenance.EXOGENOUS)
        for args in sorted(projected)
        for pad in itertools.product(ordered, repeat=len(step.pad_vars))
    )


def rewrite(db: Database, query: Query
            ) -> tuple[Database, CQNeg, RewriteTrace]:
    """Eliminate the exogenous relations from a rule.

    Preconditions: a single self-join-free rule with no non-hierarchical
    path relative to the exogenous relations, and every fact of those
    relations valid by :func:`shapfact.model.fact_violations` against the
    rule's relation symbols: exogenous, with no probability but 1.  The
    result is a hierarchical self-join-free rule over a database that
    keeps every endogenous fact except the null players the filter steps
    prove, with the same truth value on every coalition of the kept facts.
    So every kept endogenous fact keeps its attribution, every dropped
    one's is 0, and the query's probability is unchanged.  A schema that
    declares a relation with the prefix of the fresh relations is refused
    with ``ReservedNameError`` before any step.
    """
    raise_first(schema_violations(db.schema))
    rule = single_disjunct(query)
    if not is_self_join_free(rule):
        raise SelfJoinError("the rewrite requires a self-join-free rule")
    exo_names = resolve_exogenous(rule)
    path = has_non_hierarchical_path(rule)
    if path is not None:
        raise HasNonHierPathError(
            f"non-hierarchical path survives the exogenous relations: {path}",
            witness=path,
        )
    if not exo_names:
        return db, rule, RewriteTrace((), (), (), (db, query))
    symbols = Schema(a.relation for a in rule.atoms)
    # only a fact that fails this quick test can have a violation
    raise_first([problem for name in sorted(exo_names)
                 for fact in db.relation_facts(name)
                 if fact.endogenous or fact.probability not in (None, 1)
                 or len(fact.args) != symbols[name].arity
                 or not "".join(fact.args).isprintable()
                 for problem in fact_violations(fact, symbols)])
    ordinary = [(a, set(a.variables)) for a in rule.atoms
                if a.relation.name not in exo_names]
    outside = set().union(*(seen for _, seen in ordinary))
    relations = dict(db.by_relation)
    matched: set[str] = set()
    domain: tuple[str, ...] = ()
    steps: list[RewriteStep] = []
    sizes: list[tuple[tuple[int, ...], int]] = []
    for seq, component in enumerate(exogenous_atom_components(rule),
                                    start=1):
        proj = tuple(dict.fromkeys(v for a in component for v in a.variables
                                   if v in outside))
        holders = [a for a, seen in ordinary if seen.issuperset(proj)]
        anchor = next((a for a in holders if not a.negated), None)
        if anchor is not None:
            step: RewriteStep = FilterStep(component, anchor)
        elif proj and not holders:
            raise InternalError(f"no ordinary atom contains {sorted(proj)}; a "
                                "non-hierarchical path was missed")
        else:
            pad = tuple(v for v in holders[0].variables
                        if v not in proj) if proj else ()
            sym = RelationSym(f"{RESERVED_PREFIX}{seq}",
                              len(proj) + len(pad), exogenous_only=True)
            step = MaterialiseStep(component, sym, proj, pad)
            domain = domain or active_domain(db, query)
        before = tuple(len(relations.get(a.relation.name, ()))
                       for a in component)
        rule = _apply(relations, rule, step, domain, matched)
        after = len(relations[(anchor or step).relation.name])
        steps.append(step)
        sizes.append((before, after))

    if not is_hierarchical(rule) or not is_self_join_free(rule):
        raise InternalError(
            f"rewrite produced a non-hierarchical rule: {rule}"
        )
    trace = RewriteTrace(tuple(sorted(exo_names)), tuple(steps),
                         tuple(sizes), (db, query))
    return _database(db, steps, relations), rule, trace


def shapley_exo_all(db: Database, query: Query) -> dict[Fact, Fraction]:
    """Shapley values of every endogenous fact of ``db``, computed by
    rewriting the exogenous relations away and running the exact engine.
    A fact that a filter step dropped is a null player and gets 0."""
    new_db, new_rule, _trace = rewrite(db, query)
    values = shapley_exact_all(new_db, new_rule)
    zero = Fraction(0)
    return {f: values.get(f, zero) for f in db.endogenous}


def shapley_exo(db: Database, query: Query, fact: Fact) -> Fraction:
    """Shapley value of an endogenous fact, by the exact engine along the
    fact's path in the rewritten database.  A fact that a filter step
    dropped is a null player and reads 0 without a count."""
    stored = db.require_endogenous(fact)
    new_db, new_rule, _trace = rewrite(db, query)
    if stored not in new_db:
        return Fraction(0)
    return shapley_exact(new_db, new_rule, stored)

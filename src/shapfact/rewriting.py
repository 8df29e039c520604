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
  that binding; the answer is computed once per distinct binding, so no
  variable ranges over the active domain.  The other anchor facts are in
  no satisfying grounding, so they are null players and are dropped, and
  the component's atoms and relations go.
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
rewritten ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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
from .naive import _image, _index, _match, iter_homomorphisms
from .structure import (
    exogenous_atom_components,
    exogenous_variables,
    has_non_hierarchical_path,
    is_hierarchical,
    is_self_join_free,
    resolve_exogenous,
)

#: Refuse any materialise step that would build more tuples than this;
#: read when each step runs.
BLOWUP_CAP = 10_000_000


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
    """The rewrite's domain, exogenous relations and steps.  ``sizes``
    holds, per step, the facts of each relation of its component and the
    facts the step leaves: the anchor facts a filter step keeps, or the
    tuples a materialise step builds.  The sizes are a human-readable
    record and play no role in replay."""

    domain: tuple[str, ...]
    exogenous: tuple[str, ...]
    steps: tuple[RewriteStep, ...]
    sizes: tuple[tuple[tuple[int, ...], int], ...]

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
    if isinstance(step, FilterStep):
        return _filter(db, rule, step)
    return _materialise(db, rule, step, domain)


def _split(db: Database, component: Sequence[Atom]
           ) -> tuple[list[Atom], dict[str, list[tuple[str, ...]]],
                      Callable[[dict[str, str]], bool]]:
    """The positive atoms of ``component``, their facts by relation, and a
    test of whether an assignment sends a negated atom of the component
    onto one of its facts."""
    positive = [a for a in component if not a.negated]
    negated = [a for a in component if a.negated]
    index = _index(f for a in positive
                   for f in db.relation_facts(a.relation.name))
    present = {a.relation.name: db.tuples(a.relation.name) for a in negated}

    def blocked(h: dict[str, str]) -> bool:
        return any(_image(a, h)[1] in present[a.relation.name]
                   for a in negated)

    return positive, index, blocked


def _filter(db: Database, rule: CQNeg, step: FilterStep
            ) -> tuple[Database, CQNeg, int]:
    component, anchor = step.component, step.anchor
    positive, index, blocked = _split(db, component)
    inside = {v for a in component for v in a.variables}
    shared = [v for v in anchor.variables if v in inside]
    holds: dict[tuple[str, ...], bool] = {}
    kept: list[Fact] = []
    for fact in db.relation_facts(anchor.relation.name):
        binding = _match(anchor, fact.args, {})
        if binding is None:
            continue
        key = tuple(binding[v] for v in shared)
        if key not in holds:
            holds[key] = any(
                not blocked(h) for h in iter_homomorphisms(
                    positive, index, dict(zip(shared, key))))
        if holds[key]:
            kept.append(fact)
    names = {a.relation.name for a in component}
    skip = names | {anchor.relation.name}
    new_rule = CQNeg(tuple(a for a in rule.atoms if a not in component),
                     head=rule.head)
    new_db = Database(db.schema.extended((), dropped=names),
                      [f for f in db.facts if f.relation.name not in skip]
                      + kept)
    return new_db, new_rule, 0


def _materialise(db: Database, rule: CQNeg, step: MaterialiseStep,
                 domain: Sequence[str]) -> tuple[Database, CQNeg, int]:
    component = step.component
    positive, index, blocked = _split(db, component)
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
    facts = tuple(
        Fact(step.relation, args + pad, Provenance.EXOGENOUS)
        for args in sorted(projected)
        for pad in itertools.product(ordered, repeat=len(step.pad_vars))
    )
    new_rule = CQNeg(tuple(step.atom if a == component[0] else a
                           for a in rule.atoms if a not in component[1:]),
                     head=rule.head)
    new_db = db.with_relations_replaced([a.relation.name for a in component],
                                        [step.relation], facts)
    return new_db, new_rule, len(facts)


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
    symbols = Schema(a.relation for a in rule.atoms)
    raise_first([problem for name in sorted(exo_names)
                 for fact in db.relation_facts(name)
                 for problem in fact_violations(fact, symbols)])
    domain = active_domain(db, query)
    exo_vars = exogenous_variables(rule)
    ordinary = [a for a in rule.atoms if a.relation.name not in exo_names]
    steps: list[RewriteStep] = []
    sizes: list[tuple[tuple[int, ...], int]] = []
    for seq, component in enumerate(exogenous_atom_components(rule),
                                    start=1):
        proj = tuple(dict.fromkeys(v for a in component for v in a.variables
                                   if v not in exo_vars))
        anchor = next((a for a in ordinary if not a.negated
                       and set(proj) <= set(a.variables)), None)
        step: RewriteStep
        if anchor is not None:
            step = FilterStep(component, anchor)
        else:
            pad: tuple[str, ...] = ()
            if proj:
                beta = _containing_atom(ordinary, proj)
                pad = tuple(v for v in beta.variables if v not in proj)
            sym = RelationSym(f"{RESERVED_PREFIX}{seq}",
                              len(proj) + len(pad), exogenous_only=True)
            step = MaterialiseStep(component, sym, proj, pad)
        before = tuple(len(db.relation_facts(a.relation.name))
                       for a in component)
        db, rule, after = apply_step(db, rule, step, domain)
        if anchor is not None:
            after = len(db.relation_facts(anchor.relation.name))
        steps.append(step)
        sizes.append((before, after))

    if not is_hierarchical(rule) or not is_self_join_free(rule):
        raise InternalError(
            f"rewrite produced a non-hierarchical rule: {rule}"
        )
    trace = RewriteTrace(domain=tuple(domain),
                         exogenous=tuple(sorted(exo_names)),
                         steps=tuple(steps), sizes=tuple(sizes))
    return db, rule, trace


def _containing_atom(ordinary: Sequence[Atom], needed: tuple[str, ...]
                     ) -> Atom:
    want = set(needed)
    for atom in ordinary:
        if want <= set(atom.variables):
            return atom
    raise InternalError(
        f"no ordinary atom contains {sorted(want)}; a non-hierarchical "
        f"path should have been detected"
    )


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

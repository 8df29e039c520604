"""Rewriting away exogenous relations.

Some rules are non-hierarchical only *through* relations whose facts are
all exogenous.  Since those relations never change across coalitions, they
can be compiled into fresh exogenous relations whose shape makes the rule
hierarchical again, after which the exact engine applies.

The compilation takes one **materialise** step per component of the
exogenous atoms, that is per group of exogenous atoms joined by variables
that occur in exogenous atoms only.  The step replaces the component by
one fresh exogenous atom.  Its variables are the component's *shared*
variables (those also occurring outside it), then the other variables of
the first ordinary atom that contains them all.  Its tuples are the
assignments under which the component holds on its own facts:

* the homomorphisms of the component's positive atoms,
* with every variable that no positive atom binds ranging over the active
  domain,
* minus every assignment that sends a negated atom onto a fact,

projected onto the shared variables and padded with every active-domain
value in the remaining columns.  A component sharing no variable becomes
a zero-ary guard ("does the component hold at all").  The exogenous
relations are the ones the schema declares ``exogenous``, and a step that
would materialise more than :data:`BLOWUP_CAP` tuples is refused.

Every step preserves the truth value of the rule on every coalition, hence
every endogenous fact's attribution — the package's tests replay the
recorded steps one at a time and check exactly that.  Step application is
a pure function (:func:`apply_step`): a :class:`RewriteStep` holds the
atoms it replaces and the fresh atom it puts in their place, so the steps
of a :class:`RewriteTrace`, applied in order to the original rule and
database over the trace's domain, rebuild the rewritten ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import (
    BlowupExceededError,
    HasNonHierPathError,
    InternalError,
    SelfJoinError,
)
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
from .structure import (
    exogenous_atom_components,
    exogenous_variables,
    has_non_hierarchical_path,
    is_hierarchical,
    is_self_join_free,
    resolve_exogenous,
)

#: Refuse any rewrite step that would materialise more tuples than this;
#: read when each step runs.
BLOWUP_CAP = 10_000_000


@dataclass(frozen=True)
class RewriteStep:
    """One materialise step, with enough detail to replay it.

    ``component`` holds the exogenous atoms the step replaces, in rule
    order.  ``relation`` is the fresh exogenous relation over ``proj_vars``
    (the component's shared variables) followed by ``pad_vars`` (the other
    variables of the ordinary atom that contains them); :attr:`atom` is the
    atom that takes the component's place.  The size fields (facts of each
    replaced relation, tuples materialised) are a human-readable record and
    play no role in replay."""

    component: tuple[Atom, ...]
    relation: RelationSym
    proj_vars: tuple[str, ...] = ()
    pad_vars: tuple[str, ...] = ()
    sizes_before: tuple[int, ...] = ()
    size_after: int = -1

    @property
    def atom(self) -> Atom:
        return Atom(self.relation,
                    tuple(Var(v) for v in self.proj_vars + self.pad_vars))


@dataclass(frozen=True)
class RewriteTrace:
    domain: tuple[str, ...]
    exogenous: tuple[str, ...]
    steps: tuple[RewriteStep, ...]

    def describe(self) -> str:
        lines = [f"domain size {len(self.domain)}; exogenous relations: "
                 f"{', '.join(self.exogenous) or '(none)'}"]
        for i, s in enumerate(self.steps, start=1):
            src = " + ".join(map(str, s.component))
            lines.append(f"step {i} [materialise] {src} -> {s.atom} "
                         f"({'+'.join(map(str, s.sizes_before)) or '0'} "
                         f"tuples in, {s.size_after} out)")
        return "\n".join(lines)


def apply_step(db: Database, rule: CQNeg, step: RewriteStep,
               domain: Sequence[str]) -> tuple[Database, CQNeg, int]:
    """Apply one recorded step; returns the new database, the new rule, and
    the number of tuples materialised.

    Refuses with :class:`BlowupExceededError` before building any fact when
    the homomorphisms of the positive atoms, times the domain size to the
    power of the variables they leave unbound, exceed :data:`BLOWUP_CAP`."""
    from .naive import _image, _index, iter_homomorphisms

    component = step.component
    positive = [a for a in component if not a.negated]
    negated = [a for a in component if a.negated]
    bound = {v for a in positive for v in a.variables}
    free = [v for v in dict.fromkeys(v for a in negated for v in a.variables)
            if v not in bound]
    width = len(domain) ** (len(free) + len(step.pad_vars))
    index = _index(f for a in positive
                   for f in db.relation_facts(a.relation.name))
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
    present = {a.relation.name: db.tuples(a.relation.name) for a in negated}
    projected: set[tuple[str, ...]] = set()
    for h in homs:
        for values in itertools.product(ordered, repeat=len(free)):
            h.update(zip(free, values))
            if not any(_image(a, h)[1] in present[a.relation.name]
                       for a in negated):
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
    result is a hierarchical self-join-free rule over a database with the
    same endogenous facts, the same truth value on every coalition, and
    hence the same attribution for every endogenous fact.  A schema that
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
    for seq, component in enumerate(exogenous_atom_components(rule),
                                    start=1):
        proj = tuple(dict.fromkeys(v for a in component for v in a.variables
                                   if v not in exo_vars))
        pad: tuple[str, ...] = ()
        if proj:
            beta = _containing_atom(ordinary, proj)
            pad = tuple(v for v in beta.variables if v not in proj)
        sym = RelationSym(f"{RESERVED_PREFIX}{seq}", len(proj) + len(pad),
                          exogenous_only=True)
        step = RewriteStep(component, sym, proj_vars=proj, pad_vars=pad)
        sizes = tuple(len(db.relation_facts(a.relation.name))
                      for a in component)
        db, rule, produced = apply_step(db, rule, step, domain)
        steps.append(replace(step, sizes_before=sizes, size_after=produced))

    if not is_hierarchical(rule) or not is_self_join_free(rule):
        raise InternalError(
            f"rewrite produced a non-hierarchical rule: {rule}"
        )
    trace = RewriteTrace(domain=tuple(domain),
                         exogenous=tuple(sorted(exo_names)),
                         steps=tuple(steps))
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


def shapley_exo(db: Database, query: Query, fact: Fact) -> Fraction:
    """Shapley value of an endogenous fact, computed by rewriting the
    exogenous relations away and running the exact engine."""
    from .exact import shapley_exact

    stored = db.require_endogenous(fact)
    new_db, new_rule, _trace = rewrite(db, query)
    return shapley_exact(new_db, new_rule, stored)

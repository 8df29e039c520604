"""Rewriting away exogenous relations.

Some rules are non-hierarchical only *through* relations whose facts are
all exogenous.  Since those relations never change across coalitions, they
can be compiled into fresh exogenous relations whose shape makes the rule
hierarchical again, after which the exact engine applies.  The compilation
has three phases, each a sequence of small steps:

1. **complement** every negated exogenous atom: a fresh relation holds all
   tuples over the active domain *not* in the original, and the atom turns
   positive;
2. **join** each group of exogenous atoms chained by variables that occur
   nowhere else: the group becomes a single fresh atom over all its
   variables;
3. **project-pad** each remaining exogenous atom: project its facts onto
   the variables shared with the rest of the rule, then pad with full
   domain columns until the atom's variable set equals that of some
   ordinary atom containing the shared variables.  An atom sharing no
   variables at all degenerates to a zero-ary guard ("is it non-empty").

Every step preserves the truth value of the rule on every coalition, hence
every endogenous fact's attribution — the package's tests replay the
recorded steps one at a time and check exactly that.  Step application is
a pure function (:func:`apply_step`), and :class:`RewriteTrace` carries
everything needed to replay it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    BlowupExceededError,
    DuplicateFactError,
    HasNonHierPathError,
    InternalError,
    SelfJoinError,
)
from .model import (
    Atom,
    CQNeg,
    Database,
    Fact,
    Provenance,
    Query,
    RelationSym,
    Var,
    active_domain,
    single_disjunct,
)
from .structure import (
    _exo_component_indices,
    exogenous_variables,
    has_non_hierarchical_path,
    is_hierarchical,
    is_self_join_free,
    resolve_exogenous,
)

#: Refuse any rewrite step that would materialise more tuples than this.
DEFAULT_BLOWUP_CAP = 10_000_000

COMPLEMENT = "complement-negated"
JOIN = "join-component"
PAD = "project-pad"


@dataclass(frozen=True)
class RewriteStep:
    """One materialisation step, with enough detail to replay it.

    ``atom_indices`` are positions in the rule *at the time of the step*;
    ``proj_vars``/``pad_vars`` only apply to project-pad steps.  The
    ``consumed``/``produced``/size fields are a human-readable record and
    play no role in replay."""

    kind: str
    atom_indices: tuple[int, ...]
    relation: RelationSym
    proj_vars: tuple[str, ...] = ()
    pad_vars: tuple[str, ...] = ()
    consumed: tuple[str, ...] = ()
    produced: str = ""
    sizes_before: tuple[int, ...] = ()
    size_after: int = -1


@dataclass(frozen=True)
class RewriteTrace:
    domain: tuple[str, ...]
    exogenous: tuple[str, ...]
    steps: tuple[RewriteStep, ...]

    def describe(self) -> str:
        lines = [f"domain size {len(self.domain)}; exogenous relations: "
                 f"{', '.join(self.exogenous) or '(none)'}"]
        for i, s in enumerate(self.steps, start=1):
            src = " + ".join(s.consumed)
            lines.append(f"step {i} [{s.kind}] {src} -> {s.produced} "
                         f"({'+'.join(map(str, s.sizes_before)) or '0'} "
                         f"tuples in, {s.size_after} out)")
        return "\n".join(lines)


def complement_relation(rel: RelationSym, facts: Iterable[Fact],
                        domain: Sequence[str],
                        target: Optional[RelationSym] = None,
                        cap: int = DEFAULT_BLOWUP_CAP) -> tuple[Fact, ...]:
    """All tuples over ``domain ** arity`` absent from ``facts``, as
    exogenous facts of ``target`` (default: ``rel`` itself)."""
    total = len(domain) ** rel.arity
    if total > cap:
        raise BlowupExceededError(
            f"complement of {rel.name}/{rel.arity} over a domain of "
            f"{len(domain)} values would hold up to {total} tuples "
            f"(cap {cap})"
        )
    out_rel = target or rel
    present = {f.args for f in facts}
    ordered = sorted(domain)
    return tuple(
        Fact(out_rel, args, Provenance.EXOGENOUS)
        for args in itertools.product(ordered, repeat=rel.arity)
        if args not in present
    )


# ---------------------------------------------------------------------------
# step application (pure; used both by the driver and by replay)
# ---------------------------------------------------------------------------


def apply_step(db: Database, rule: CQNeg, step: RewriteStep,
               domain: Sequence[str],
               cap: int = DEFAULT_BLOWUP_CAP) -> tuple[Database, CQNeg, int]:
    """Apply one recorded step; returns the new database, the new rule, and
    the number of tuples materialised."""
    if step.kind == COMPLEMENT:
        return _apply_complement(db, rule, step, domain, cap)
    if step.kind == JOIN:
        return _apply_join(db, rule, step, cap)
    if step.kind == PAD:
        return _apply_pad(db, rule, step, domain, cap)
    raise InternalError(f"unknown rewrite step kind {step.kind!r}")


def _replace_atom(rule: CQNeg, index: int, atom: Atom) -> CQNeg:
    atoms = list(rule.atoms)
    atoms[index] = atom
    return CQNeg(tuple(atoms), head=rule.head)


def _apply_complement(db: Database, rule: CQNeg, step: RewriteStep,
                      domain: Sequence[str], cap: int
                      ) -> tuple[Database, CQNeg, int]:
    (index,) = step.atom_indices
    atom = rule.atoms[index]
    facts = complement_relation(atom.relation,
                                db.relation_facts(atom.relation.name),
                                domain, target=step.relation, cap=cap)
    new_rule = _replace_atom(rule, index,
                             Atom(step.relation, atom.terms, negated=False))
    new_db = db.with_relations_replaced([atom.relation.name],
                                        [step.relation], facts)
    return new_db, new_rule, len(facts)


def _apply_join(db: Database, rule: CQNeg, step: RewriteStep,
                cap: int) -> tuple[Database, CQNeg, int]:
    from .naive import _index, iter_homomorphisms

    atoms = [rule.atoms[i] for i in step.atom_indices]
    if any(a.negated for a in atoms):
        raise InternalError("join step reached a negated atom; complements "
                            "must run first")
    var_order = step.proj_vars
    index = _index(f for a in atoms
                   for f in db.relation_facts(a.relation.name))
    tuples: set[tuple[str, ...]] = set()
    for h in iter_homomorphisms(atoms, index):
        tuples.add(tuple(h[v] for v in var_order))
        if len(tuples) > cap:
            raise BlowupExceededError(
                f"joining {len(atoms)} exogenous atoms exceeded the cap "
                f"{cap}"
            )
    facts = tuple(Fact(step.relation, args, Provenance.EXOGENOUS)
                  for args in sorted(tuples))
    new_atom = Atom(step.relation, tuple(Var(v) for v in var_order))
    keep = set(step.atom_indices[1:])
    new_atoms = [new_atom if i == step.atom_indices[0] else a
                 for i, a in enumerate(rule.atoms) if i not in keep]
    new_rule = CQNeg(tuple(new_atoms), head=rule.head)
    new_db = db.with_relations_replaced(
        [a.relation.name for a in atoms], [step.relation], facts)
    return new_db, new_rule, len(facts)


def _apply_pad(db: Database, rule: CQNeg, step: RewriteStep,
               domain: Sequence[str], cap: int
               ) -> tuple[Database, CQNeg, int]:
    from .naive import _index, iter_homomorphisms

    (index_pos,) = step.atom_indices
    atom = rule.atoms[index_pos]
    if atom.negated:
        raise InternalError("pad step reached a negated atom; complements "
                            "must run first")
    rel_index = _index(db.relation_facts(atom.relation.name))
    projected: set[tuple[str, ...]] = set()
    for h in iter_homomorphisms([atom], rel_index):
        projected.add(tuple(h[v] for v in step.proj_vars))
    pad_total = len(domain) ** len(step.pad_vars)
    if len(projected) * pad_total > cap:
        raise BlowupExceededError(
            f"padding {atom.relation.name} with {len(step.pad_vars)} domain "
            f"columns would hold {len(projected) * pad_total} tuples "
            f"(cap {cap})"
        )
    ordered = sorted(domain)
    facts = tuple(
        Fact(step.relation, args + pad, Provenance.EXOGENOUS)
        for args in sorted(projected)
        for pad in itertools.product(ordered, repeat=len(step.pad_vars))
    )
    terms = tuple(Var(v) for v in step.proj_vars + step.pad_vars)
    new_rule = _replace_atom(rule, index_pos, Atom(step.relation, terms))
    new_db = db.with_relations_replaced([atom.relation.name],
                                        [step.relation], facts)
    return new_db, new_rule, len(facts)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def rewrite(db: Database, query: Query,
            x: Optional[frozenset[str]] = None,
            cap: int = DEFAULT_BLOWUP_CAP
            ) -> tuple[Database, CQNeg, RewriteTrace]:
    """Eliminate the exogenous relations from a rule.

    Preconditions: a single self-join-free rule with no non-hierarchical
    path relative to the exogenous relations, and every fact of those
    relations exogenous.  The result is a hierarchical self-join-free rule
    over a database with the same endogenous facts, the same truth value on
    every coalition, and hence the same attribution for every endogenous
    fact.
    """
    rule = single_disjunct(query)
    if not is_self_join_free(rule):
        raise SelfJoinError("the rewrite requires a self-join-free rule")
    exo_names = resolve_exogenous(rule, x)
    path = has_non_hierarchical_path(rule, exo_names)
    if path is not None:
        raise HasNonHierPathError(
            f"non-hierarchical path survives the exogenous relations: {path}",
            witness=path,
        )
    for name in sorted(exo_names):
        for fact in db.relation_facts(name):
            if fact.endogenous:
                raise DuplicateFactError(
                    f"relation {name} is treated as exogenous but fact "
                    f"{fact} is endogenous"
                )
    domain = active_domain(db, query)
    working = {n for n in exo_names
               if any(a.relation.name == n for a in rule.atoms)}
    ever_exo = set(working)
    steps: list[RewriteStep] = []
    seq = 0

    def fresh(kind: str, arity: int) -> RelationSym:
        nonlocal seq
        seq += 1
        return RelationSym(f"__exo_{seq}_{kind}", arity, exogenous_only=True)

    def run(step: RewriteStep) -> RewriteStep:
        nonlocal db, rule
        sizes = tuple(len(db.relation_facts(rule.atoms[i].relation.name))
                      for i in step.atom_indices)
        consumed = tuple(str(rule.atoms[i]) for i in step.atom_indices)
        db, rule, produced_count = apply_step(db, rule, step, domain, cap)
        new_atom = next(a for a in rule.atoms
                        if a.relation.name == step.relation.name)
        done = replace(step, consumed=consumed, produced=str(new_atom),
                       sizes_before=sizes, size_after=produced_count)
        steps.append(done)
        ever_exo.add(step.relation.name)
        return done

    # phase 1: complement negated exogenous atoms (1:1, indices stable)
    for i in range(len(rule.atoms)):
        atom = rule.atoms[i]
        if atom.negated and atom.relation.name in working:
            sym = fresh("co", len(atom.terms))
            run(RewriteStep(COMPLEMENT, (i,), sym))
            working.discard(atom.relation.name)
            working.add(sym.name)

    # phase 2: join multi-atom exogenous components (indices shift, so
    # recompute components after every join)
    while True:
        components = [c for c in _exo_component_indices(rule, frozenset(working))
                      if len(c) >= 2]
        if not components:
            break
        target = components[0]
        var_order: dict[str, None] = {}
        for i in target:
            for v in rule.atoms[i].variables:
                var_order.setdefault(v, None)
        names = {rule.atoms[i].relation.name for i in target}
        sym = fresh("join", len(var_order))
        run(RewriteStep(JOIN, tuple(target), sym,
                        proj_vars=tuple(var_order)))
        working -= names
        working.add(sym.name)

    # phase 3: project each remaining exogenous atom onto its shared
    # variables and pad to a containing ordinary atom (1:1, stable)
    for i in range(len(rule.atoms)):
        atom = rule.atoms[i]
        if atom.relation.name not in working:
            continue
        exo_vars = exogenous_variables(rule, frozenset(working))
        proj = tuple(v for v in atom.variables if v not in exo_vars)
        pad: tuple[str, ...] = ()
        if proj:
            beta = _containing_atom(rule, ever_exo, proj)
            pad = tuple(v for v in beta.variables if v not in proj)
        sym = fresh("pad", len(proj) + len(pad))
        run(RewriteStep(PAD, (i,), sym, proj_vars=proj, pad_vars=pad))
        working.discard(atom.relation.name)

    if not is_hierarchical(rule) or not is_self_join_free(rule):
        raise InternalError(
            f"rewrite produced a non-hierarchical rule: {rule}"
        )
    trace = RewriteTrace(domain=tuple(domain),
                         exogenous=tuple(sorted(exo_names)),
                         steps=tuple(steps))
    return db, rule, trace


def _containing_atom(rule: CQNeg, ever_exo: set[str],
                     needed: tuple[str, ...]) -> Atom:
    want = set(needed)
    for atom in rule.atoms:
        if atom.relation.name in ever_exo:
            continue
        if want <= set(atom.variables):
            return atom
    raise InternalError(
        f"no ordinary atom contains {sorted(want)}; a non-hierarchical "
        f"path should have been detected"
    )


def shapley_exo(db: Database, query: Query, fact: Fact,
                x: Optional[frozenset[str]] = None,
                cap: int = DEFAULT_BLOWUP_CAP) -> Fraction:
    """Shapley value of an endogenous fact, computed by rewriting the
    exogenous relations away and running the exact engine."""
    from .exact import shapley_exact

    stored = db.require_endogenous(fact)
    new_db, new_rule, _trace = rewrite(db, query, x, cap)
    return shapley_exact(new_db, new_rule, stored)

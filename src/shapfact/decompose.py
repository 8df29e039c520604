"""The one recursion behind exact counting and lifted probability.

Both engines compute a weighted model count of a hierarchical,
self-join-free rule: the total weight of the worlds (sets of present
facts) that satisfy it.  They differ only in the weights, which the caller
passes in as a *weighting* of two functions returning vectors (see
:func:`weighted_count`).  The counting engine (:mod:`shapfact.exact`)
weighs an endogenous fact ``x`` when present and ``1`` when absent, so a
vector lists the satisfying worlds by size; the probability engine
(:mod:`shapfact.prob`) weighs a fact ``p`` or ``1 - p``, so a vector is a
single probability.  The recursion:

1. split the atoms into variable-connectivity components (a ground atom is
   its own component);
2. route every fact to the component containing an atom it unifies with;
   facts that unify with nothing are "free" — they never influence the
   query and only contribute the total weight of their worlds;
3. independent parts multiply: their vectors convolve;
4. a lone non-ground component is solved through its *root* variable (one
   occurring in all of the component's atoms): facts split by root value
   into independent sub-problems, the component fails exactly when every
   sub-problem fails, so the failure vectors (each sub-problem's total
   minus its satisfying vector) convolve, and the result is complemented
   against the total;
5. a lone ground atom reads its vector off the weighting.

Alongside the vector, the recursion returns the tree of convolution
chains that the counting engine's reverse pass walks.  Probability's
ground atoms have no leaves, so its tree is always ``None``.

:func:`weighted_count` takes the whole query and refuses, for both
engines, anything but a single self-join-free hierarchical rule before
the recursion starts.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import InternalError, NotHierarchicalError, SelfJoinError
from .model import Atom, Const, Fact, Query, Var, single_disjunct
from .structure import is_hierarchical, is_self_join_free


def _unifies(fact: Fact, atom: Atom) -> bool:
    """True iff the fact could be an image of the atom: same relation and
    arity, equal constants positionwise, and equal values wherever the atom
    repeats a variable."""
    if fact.relation.name != atom.relation.name:
        return False
    if len(fact.args) != len(atom.terms):
        return False
    seen: dict[str, str] = {}
    for term, value in zip(atom.terms, fact.args):
        if isinstance(term, Const):
            if term.value != value:
                return False
        else:
            prior = seen.setdefault(term.name, value)
            if prior != value:
                return False
    return True


def split_components(atoms: Sequence[Atom]) -> list[list[int]]:
    """Atom indices grouped into variable-sharing connected components,
    ordered by smallest member index.  Ground atoms form singletons."""
    parent = list(range(len(atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[str, int] = {}
    for i, atom in enumerate(atoms):
        for v in atom.variables:
            if v in by_var:
                rep = find(by_var[v])
                parent[find(i)] = rep
            else:
                by_var[v] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(atoms)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def bucket_facts(atoms: Sequence[Atom], components: Sequence[Sequence[int]],
                 facts: Iterable[Fact]
                 ) -> tuple[list[list[Fact]], list[Fact]]:
    """Route each fact to the component owning an atom it unifies with.

    Returns (per-component fact lists, free facts).  With self-join-free
    atoms a relation belongs to at most one component, so the routing is
    unambiguous."""
    comp_of_atom = {}
    for ci, comp in enumerate(components):
        for ai in comp:
            comp_of_atom[ai] = ci
    atoms_of_rel: dict[str, list[int]] = {}
    for i, atom in enumerate(atoms):
        atoms_of_rel.setdefault(atom.relation.name, []).append(i)
    buckets: list[list[Fact]] = [[] for _ in components]
    free: list[Fact] = []
    for fact in facts:
        target: Optional[int] = None
        for ai in atoms_of_rel.get(fact.relation.name, ()):
            if _unifies(fact, atoms[ai]):
                target = comp_of_atom[ai]
                break
        if target is None:
            free.append(fact)
        else:
            buckets[target].append(fact)
    return buckets, free


def root_variable(atoms: Sequence[Atom]) -> Optional[str]:
    """The lexicographically least variable occurring in every atom."""
    common: Optional[set[str]] = None
    for atom in atoms:
        vs = set(atom.variables)
        common = vs if common is None else common & vs
    if not common:
        return None
    return min(common)


def partition_by_root(atoms: Sequence[Atom], facts: Iterable[Fact],
                      root: str) -> dict[str, list[Fact]]:
    """Group facts by the value they force on the root variable.

    Every fact must unify with some atom (pre-bucketed); the root's
    positions in that atom determine the value."""
    groups: dict[str, list[Fact]] = {}
    for fact in facts:
        value: Optional[str] = None
        for atom in atoms:
            if _unifies(fact, atom):
                for term, arg in zip(atom.terms, fact.args):
                    if isinstance(term, Var) and term.name == root:
                        value = arg
                        break
                break
        if value is None:
            raise InternalError(
                f"fact {fact} reached a root split without a unifying atom "
                f"containing {root}"
            )
        groups.setdefault(value, []).append(fact)
    return groups


def substitute_all(atoms: Sequence[Atom], var: str, value: str) -> list[Atom]:
    return [a.substituted({var: value}) for a in atoms]


# a vector: counts by world size (ints), or one probability (a Fraction)
Vector = list
Total = Callable[[Sequence[Fact]], Vector]
Ground = Callable[[Atom, Optional[Fact]], tuple[Vector, Any]]
_UNIT: Vector = [1]  # the empty product, tested by identity


def weighted_count(query: Query, facts: Sequence[Fact], total: Total,
                   ground: Ground) -> tuple[Vector, Any]:
    """The weighted count of the worlds over ``facts`` that satisfy the
    query, and its tree.

    The query must be a single self-join-free hierarchical rule; anything
    else is refused with ``UnsupportedQueryError``, ``SelfJoinError`` or
    ``NotHierarchicalError``.

    ``total(facts)`` is the weight of all worlds over ``facts``, and
    ``ground(atom, fact)`` is the vector of a lone ground atom whose one
    possible image is ``fact`` (``None`` when absent), paired with the
    leaf the tree keeps for it (``None`` for none).

    The tree is ``None`` when it holds no leaf; a leaf as ``ground``
    returned it; or a convolution chain, a list with one ``(prefix,
    factor, child)`` per factor from the first whose subtree holds a leaf
    on: the product of the factors to its left, the factor, and its
    subtree."""
    rule = single_disjunct(query)
    if not is_self_join_free(rule):
        raise SelfJoinError("weighted counting requires a self-join-free "
                            "rule")
    if not is_hierarchical(rule):
        raise NotHierarchicalError("weighted counting requires a "
                                   "hierarchical rule")
    return _count(rule.atoms, facts, total, ground)


def _count(atoms: Sequence[Atom], facts: Sequence[Fact], total: Total,
           ground: Ground) -> tuple[Vector, Any]:
    if not atoms:
        return total(facts), None
    components = split_components(atoms)
    buckets, free = bucket_facts(atoms, components, facts)
    if len(components) == 1 and not free:
        component = [atoms[i] for i in components[0]]
        if len(component) == 1 and component[0].is_ground:
            # every fact here unifies with the ground atom, so the facts
            # are its one possible image or nothing
            return ground(component[0], facts[0] if facts else None)
        return _root_split(component, facts, total, ground)
    parts = [(total(free), None)] if free else []
    for component, bucket in zip(components, buckets):
        parts.append(_count([atoms[i] for i in component], bucket, total,
                            ground))
    return _product(parts)


def _root_split(atoms: list[Atom], facts: Sequence[Fact], total: Total,
                ground: Ground) -> tuple[Vector, Any]:
    root = root_variable(atoms)
    if root is None:
        raise NotHierarchicalError(
            "entangled component without a shared variable; the rule is "
            "not hierarchical"
        )
    # the component fails exactly when every root value's sub-problem
    # fails; failures over disjoint fact groups multiply
    parts = []
    for value, group in sorted(partition_by_root(atoms, facts, root).items()):
        sat, child = _count(substitute_all(atoms, root, value), group, total,
                            ground)
        parts.append((_complement(total(group), sat), child))
    fails, tree = _product(parts)
    return _complement(total(facts), fails), tree


def _complement(total: Vector, vector: Vector) -> Vector:
    if len(vector) != len(total):
        raise InternalError("root split lost track of endogenous facts")
    return [t - v for t, v in zip(total, vector)]


def _product(parts: Iterable[tuple[Vector, Any]]) -> tuple[Vector, Any]:
    """The product of the parts' vectors, and their convolution chain.

    The chain starts at the first part with a subtree: the reverse pass
    reaches nothing left of it, so a product without leaves (every one of
    probability's) records nothing."""
    vector = _UNIT
    chain: list[tuple[Vector, Vector, Any]] = []
    for factor, child in parts:
        if child is not None or chain:
            chain.append((vector, factor, child))
        vector = factor if vector is _UNIT else _convolve(vector, factor)
    return vector, (chain or None)


def _convolve(a: Vector, b: Vector) -> Vector:
    # probabilities are length-1 vectors, whose product needs no sum
    if len(a) == 1:
        return [a[0] * y for y in b]
    if len(b) == 1:
        return [x * b[0] for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out

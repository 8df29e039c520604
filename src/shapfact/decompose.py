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
2. check every fact once, at the top, against the one atom of its
   relation: facts that unify with no atom are "free" — they never
   influence the query and only contribute the total weight of their
   worlds; every other fact goes to its atom's component, and from then on
   it is routed by its relation alone;
3. independent parts multiply: their vectors convolve, and a lone part
   passes up as it is;
4. a lone component with an unbound variable is solved through its *root*
   variable (one occurring in all of the component's atoms): facts split
   by their argument at the root's position in their relation's atom into
   independent sub-problems, one per root value in the order the values
   first occur (the product does not depend on it), the component fails
   exactly when every sub-problem fails, so the failure vectors (each
   sub-problem's total minus its satisfying vector) convolve, and the
   result is complemented against the total; below the split the root is
   bound, and the atoms split into components again.  Free facts are
   found here too: a root value without a fact of some positive atom
   fails in every world, so its failure vector is its total; the facts of
   all such root values pool into one total with no subtree, and only the
   other root values' sub-problems are solved;
5. a lone atom whose variables are all bound reads its vector off the
   weighting.

The shape of the recursion depends on the rule alone, so each call
compiles it once into a plan of products (step 3), root splits (step 4)
and leaves (step 5) before routing any fact.

Alongside the vector, the recursion returns the tree of convolution
chains that the counting engine's reverse pass walks.  Probability's
ground atoms have no leaves, so its tree is always ``None``.

:func:`weighted_count` takes the whole query and refuses, for both
engines, anything but a single self-join-free hierarchical rule before
the recursion starts: a rule that is not hierarchical has a component
with no root variable, which compiling the plan refuses.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, attrgetter, mul, sub
from typing import (Any, Callable, Collection, Iterable, NamedTuple, Optional,
                    Sequence, Union)

from .errors import InternalError, NotHierarchicalError, SelfJoinError
from .model import Atom, Fact, Query, Var, single_disjunct
from .naive import _match
from .structure import is_self_join_free, split_components


def bucket_facts(atoms: Sequence[Atom], components: Sequence[Sequence[int]],
                 facts: Iterable[Fact]
                 ) -> tuple[list[list[Fact]], list[Fact]]:
    """Route each fact to the component owning the atom of its relation,
    when it unifies with that atom.

    Returns (per-component fact lists, free facts).  This is the
    recursion's one unification check: with self-join-free atoms a
    relation has at most one atom, and below the top every fact is routed
    by its relation."""
    owner: dict[str, tuple[Atom, int]] = {}
    for ci, comp in enumerate(components):
        for ai in comp:
            owner[atoms[ai].relation.name] = (atoms[ai], ci)
    buckets: list[list[Fact]] = [[] for _ in components]
    free: list[Fact] = []
    for fact in facts:
        found = owner.get(fact.relation.name)
        if found is not None and _match(found[0], fact.args, {}) is not None:
            buckets[found[1]].append(fact)
        else:
            free.append(fact)
    return buckets, free


def root_variable(variables: Sequence[Collection[str]]) -> str:
    """The lexicographically least variable occurring in every atom, given
    by its variables."""
    common = set.intersection(*map(set, variables))
    if not common:
        raise NotHierarchicalError("entangled component without a shared "
                                   "variable; the rule is not hierarchical")
    return min(common)


# a vector: counts by world size (ints), or one probability (an exact
# rational, see shapfact.prob)
Vector = list
Total = Callable[[Sequence[Fact]], Vector]
Ground = Callable[[Atom, Optional[Fact]], tuple[Vector, Any]]
_UNIT: Vector = [1]  # the empty product, tested by identity
_relation_name = attrgetter("relation.name")


def weighted_count(query: Query, facts: Sequence[Fact], total: Total,
                   ground: Ground) -> tuple[Vector, Any]:
    """The weighted count of the worlds over ``facts`` that satisfy the
    query, and its tree.

    The query must be a single self-join-free hierarchical rule; anything
    else is refused with ``UnsupportedQueryError``, ``SelfJoinError`` or,
    from :func:`root_variable` while the rule is planned and before any
    fact is routed, ``NotHierarchicalError``.

    ``total(facts)`` is the weight of all worlds over ``facts``, and
    ``ground(atom, fact)`` is the vector of a rule atom whose variables
    the root splits above have all bound and whose one possible image is
    ``fact`` (``None`` when absent), paired with the leaf the tree keeps
    for it (``None`` for none).

    The tree is ``None`` when it holds no leaf; a leaf as ``ground``
    returned it; or a convolution chain, a list with one ``(prefix,
    factor, child)`` per factor whose subtree holds a leaf: the product of
    the factors convolved before it (see :func:`_product`), the factor,
    and its subtree.  A product of one factor is no chain: the factor's
    own tree stands for it."""
    rule = single_disjunct(query)
    if not is_self_join_free(rule):
        raise SelfJoinError("weighted counting requires a self-join-free "
                            "rule")
    atoms = rule.atoms
    if not atoms:
        return total(facts), None
    components, plans = _compile(atoms, frozenset())
    buckets, free = bucket_facts(atoms, components, facts)
    parts = [(total(free), None)] if free else []
    for plan, bucket in zip(plans, buckets):
        parts.append(plan.solve(bucket, total, ground))
    return _product(parts)


class _Leaf(NamedTuple):
    """A lone atom whose variables are all bound: the facts that reach it
    are its one possible image or nothing."""

    atom: Atom

    def solve(self, facts: Sequence[Fact], total: Total,
              ground: Ground) -> tuple[Vector, Any]:
        return ground(self.atom, facts[0] if facts else None)


class _Split(NamedTuple):
    """A connected component solved through its root variable, found in
    each relation's atom at ``position[relation name]``; ``positive``
    names the relations of the component's positive atoms that a root
    value's facts can lack (none when the component is one atom)."""

    position: dict[str, int]
    positive: frozenset[str]
    below: _Plan

    def solve(self, facts: Sequence[Fact], total: Total,
              ground: Ground) -> tuple[Vector, Any]:
        position = self.position
        groups: dict[str, list[Fact]] = {}
        for fact in facts:
            groups.setdefault(fact.args[position[fact.relation.name]],
                              []).append(fact)
        # the component fails exactly when every root value's sub-problem
        # fails; failures over disjoint fact groups multiply, in any order.
        # A group without a fact of some positive atom fails in every
        # world, so its failures are its total: such groups pool into free
        # facts, whose one total has no subtree
        positive, below = self.positive, self.below.solve
        free: list[Fact] = []
        parts = []
        for group in groups.values():
            if not positive or positive.issubset(map(_relation_name, group)):
                sat, child = below(group, total, ground)
                parts.append((_complement(total(group), sat), child))
            else:
                free += group
        if free:
            parts.append((total(free), None))
        fails, tree = _product(parts)
        return _complement(total(facts), fails), tree


class _Product(NamedTuple):
    """Independent components, the one of each relation's atom at
    ``part_of[relation name]``."""

    parts: list[_Plan]
    part_of: dict[str, int]

    def solve(self, facts: Sequence[Fact], total: Total,
              ground: Ground) -> tuple[Vector, Any]:
        routed: list[list[Fact]] = [[] for _ in self.parts]
        for fact in facts:
            routed[self.part_of[fact.relation.name]].append(fact)
        return _product([plan.solve(group, total, ground)
                         for plan, group in zip(self.parts, routed)])


# a node of the compiled recursion; solve(facts, total, ground) is the
# weighted count of the worlds over the facts routed to it, and its tree
_Plan = Union[_Leaf, _Split, _Product]


def _compile(atoms: Sequence[Atom], bound: frozenset[str]
             ) -> tuple[list[list[int]], list[_Plan]]:
    """The components of ``atoms`` once the variables in ``bound`` are
    bound, and the plan of each."""
    unbound = [[v for v in atom.variables if v not in bound]
               for atom in atoms]
    components = split_components(unbound)
    plans: list[_Plan] = []
    for component in components:
        if len(component) == 1 and not unbound[component[0]]:
            plans.append(_Leaf(atoms[component[0]]))
            continue
        root = root_variable([unbound[i] for i in component])
        members = [atoms[i] for i in component]
        inner, below = _compile(members, bound | {root})
        position = {atom.relation.name: atom.terms.index(Var(root))
                    for atom in members}
        positive: frozenset[str] = frozenset()
        # every root value of a one-atom component holds a fact of its atom
        if len(members) > 1:
            positive = frozenset(atom.relation.name for atom in members
                                 if not atom.negated)
        part_of = {members[i].relation.name: pi
                   for pi, part in enumerate(inner) for i in part}
        plans.append(_Split(position, positive, below[0] if len(below) == 1
                            else _Product(below, part_of)))
    return components, plans


def _complement(total: Vector, vector: Vector) -> Vector:
    if len(vector) != len(total):
        raise InternalError("root split lost track of endogenous facts")
    if len(total) == 1:
        return [total[0] - vector[0]]
    return list(map(sub, total, vector))


def _product(parts: Sequence[tuple[Vector, Any]]) -> tuple[Vector, Any]:
    """The product of the parts' vectors, and their convolution chain.

    The factors without a subtree convolve first, then those with one,
    each kind in the parts' order, so the chain holds exactly the parts
    with a subtree: the reverse pass never steps through a factor it has
    nothing to hand.  A product without leaves (every one of
    probability's) keeps the parts' order and records nothing.  A product
    of one part is that part, vector and tree."""
    if len(parts) == 1:
        return parts[0]
    vector = _UNIT
    later: list[tuple[Vector, Any]] = []
    for factor, child in parts:
        if child is None:
            vector = factor if vector is _UNIT else _convolve(vector, factor)
        else:
            later.append((factor, child))
    chain: list[tuple[Vector, Vector, Any]] = []
    for factor, child in later:
        chain.append((vector, factor, child))
        vector = factor if vector is _UNIT else _convolve(vector, factor)
    return vector, (chain or None)


def _convolve(a: Vector, b: Vector) -> Vector:
    if len(a) < len(b):
        a, b = b, a
    # probabilities are length-1 vectors, whose product needs no sum
    if len(b) == 1:
        if len(a) == 1:
            return [a[0] * b[0]]
        return list(map(mul, a, repeat(b[0])))
    # each entry of the shorter vector adds a shifted multiple of the other
    width = len(a)
    out = [0] * (width + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + width] = map(add, out[j:j + width],
                                   map(mul, a, repeat(y)))
    return out

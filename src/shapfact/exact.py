"""Exact attribution for hierarchical self-join-free rules.

The workhorse is :func:`count_satisfying_subsets`: for each ``k`` it counts
the k-subsets of the endogenous facts that, together with the exogenous
facts, satisfy the query.  A fact's Shapley value needs two such vectors
over the other ``n - 1`` facts — one with the fact promoted to exogenous,
one with it deleted::

    value(f) = sum_k  k! (n-1-k)! / n!  *  (promoted_f[k] - deleted_f[k])

Counting recurses over the query structure (see :mod:`shapfact.decompose`):

* independent components and free facts multiply — a convolution of their
  count vectors (free endogenous facts contribute plain binomials);
* a single entangled component is split on its root variable: for each
  root value the sub-problem's *unsatisfying* counts convolve (worlds
  multiply exactly when all sub-worlds fail), and the result is
  complemented against the binomials.

Ground atoms bottom out as one-fact components: a present endogenous fact
contributes the vector [0, 1] (positive atom) or [1, 0] (negated), an
exogenous one [1] or [0], a missing one [0] or [1].

**All facts from one count.**  Give every endogenous fact ``f`` a weight
``a_f`` when present and ``b_f`` when absent.  The recursion computes the
weighted count ``S``, which is multilinear in each fact's pair of weights:
``S = a_f * promoted_f + b_f * deleted_f``.  Hence::

    promoted_f - deleted_f  =  dS/da_f - dS/db_f

and one reverse (adjoint) pass over the recursion tree yields this
difference for every fact at once, already paired with the Shapley
weights.  The pass pushes an integer covector ``A`` down the tree, starting
from ``W[k] = k! (n-1-k)!`` at the root, so that at every node ``<A, dV>``
is the contribution of the node's facts:

* a node whose vector is a chain of convolutions ``P_i = P_{i-1} * F_i``
  (independent parts, or a root split's unsatisfying vectors) hands child
  ``i`` the covector ``corr(A_i, P_{i-1})`` and keeps ``A_{i-1} =
  corr(A_i, F_i)`` for the children to its left — no division, and no
  product of the siblings per child;
* a root split ``S = T - prod U_v`` with ``U_v = T_v - S_v`` flips the sign
  twice, so the covector passes through unchanged; binomials such as ``T``
  have equal derivatives in ``a_f`` and ``b_f`` and drop out;
* an endogenous ground leaf is ``a_f`` (positive atom) or ``b_f``
  (negated), so its fact reads ``+A[0]`` or ``-A[0]``.  Facts the pass
  never reaches are null players and get 0.

All of this is integer arithmetic; each value is one ``Fraction`` over
``n!``.  The forward count and the reverse pass each cost about as much as
one call of :func:`count_satisfying_subsets`, so valuing all ``n`` facts
costs about two counts instead of ``2n``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import Optional, Sequence, Union

from .decompose import (
    bucket_facts,
    partition_by_root,
    root_variable,
    split_components,
    substitute_all,
)
from .errors import (
    FactNotEndogenousError,
    InternalError,
    NotHierarchicalError,
    SelfJoinError,
)
from .model import Atom, CQNeg, Database, Fact, Query, single_disjunct
from .structure import is_hierarchical, is_self_join_free

CountVector = list[int]


class _Chain:
    """A node whose vector is ``factors[0] * ... * factors[-1]``, kept for
    the reverse pass: ``prefixes[i]`` is the product of the factors left of
    ``i`` and ``children[i]`` the subtree of factor ``i`` (``None`` where
    the factor holds no fact the pass needs to reach)."""

    __slots__ = ("vector", "prefixes", "factors", "children")

    def __init__(self) -> None:
        self.vector: CountVector = [1]
        self.prefixes: list[CountVector] = []
        self.factors: list[CountVector] = []
        self.children: list[Optional[_Node]] = []

    def push(self, factor: CountVector, child: Optional[_Node]) -> None:
        self.prefixes.append(self.vector)
        self.factors.append(factor)
        self.children.append(child)
        self.vector = _convolve(self.vector, factor)

    def tree(self) -> Optional[_Chain]:
        """The node itself, or ``None`` when no child holds a fact."""
        return self if any(self.children) else None


# an endogenous ground leaf: the fact and +1 (positive atom) or -1 (negated)
_Leaf = tuple[Fact, int]
_Node = Union[_Chain, _Leaf]


def _binomials(n: int) -> CountVector:
    return [comb(n, k) for k in range(n + 1)]


def _convolve(a: Sequence[int], b: Sequence[int]) -> CountVector:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _correlate(a: Sequence[int], b: Sequence[int]) -> CountVector:
    """``out[t] = sum_s a[s + t] * b[s]``: the covector of one convolution
    factor given the covector ``a`` of the product and the other factor
    ``b``."""
    width = len(b)
    return [sum(map(mul, a[t:t + width], b))
            for t in range(len(a) - width + 1)]


def _endo_count(facts: Sequence[Fact]) -> int:
    return sum(1 for f in facts if f.endogenous)


def _check_rule(query: Query) -> CQNeg:
    rule = single_disjunct(query)
    if not is_self_join_free(rule):
        raise SelfJoinError("exact counting requires a self-join-free rule")
    if not is_hierarchical(rule):
        raise NotHierarchicalError(
            "exact counting requires a hierarchical rule"
        )
    return rule


def count_satisfying_subsets(db: Database, query: Query) -> CountVector:
    """The vector ``v`` with ``v[k]`` = number of k-subsets of the
    endogenous facts satisfying the query together with the exogenous ones.

    Requires a single self-join-free hierarchical rule.
    """
    rule = _check_rule(query)
    return _counts(list(rule.atoms), list(db.facts))[0]


def _counts(atoms: list[Atom], facts: list[Fact]
            ) -> tuple[CountVector, Optional[_Node]]:
    """The count vector of the sub-problem and its tree for the reverse
    pass (``None`` when no endogenous fact can change the answer)."""
    if not atoms:
        return _binomials(_endo_count(facts)), None
    components = split_components(atoms)
    buckets, free = bucket_facts(atoms, components, facts)
    if len(components) == 1 and not free:
        component = [atoms[i] for i in components[0]]
        if len(component) == 1 and component[0].is_ground:
            return _ground_counts(component[0], facts)
        return _root_split(component, facts)
    # independent parts: convolve the free endogenous facts' binomials and
    # the component vectors
    chain = _Chain()
    n_free = _endo_count(free)
    if n_free:
        chain.push(_binomials(n_free), None)
    for component, bucket in zip(components, buckets):
        chain.push(*_counts([atoms[i] for i in component], bucket))
    return chain.vector, chain.tree()


def _ground_counts(atom: Atom, facts: list[Fact]
                   ) -> tuple[CountVector, Optional[_Leaf]]:
    """Count vector of a single ground atom over its (at most one) fact."""
    present = [f for f in facts if f.args == atom.ground_args()]
    if not present:
        return ([1] if atom.negated else [0]), None
    fact = present[0]
    if fact.endogenous:
        if atom.negated:
            return [1, 0], (fact, -1)
        return [0, 1], (fact, 1)
    return ([0] if atom.negated else [1]), None


def _root_split(atoms: list[Atom], facts: list[Fact]
                ) -> tuple[CountVector, Optional[_Chain]]:
    root = root_variable(atoms)
    if root is None:
        raise NotHierarchicalError(
            "entangled component without a shared variable; the rule is "
            "not hierarchical"
        )
    n = _endo_count(facts)
    # the component fails exactly when every root value's sub-problem
    # fails; failures over disjoint fact groups convolve
    chain = _Chain()
    for value, group in sorted(partition_by_root(atoms, facts, root).items()):
        sub_sat, child = _counts(substitute_all(atoms, root, value), group)
        m = _endo_count(group)
        chain.push([comb(m, j) - sub_sat[j] for j in range(m + 1)], child)
    unsat = chain.vector
    if len(unsat) != n + 1:
        raise InternalError("root split lost track of endogenous facts")
    return [comb(n, k) - unsat[k] for k in range(n + 1)], chain.tree()


def _reverse(node: _Node, covector: CountVector,
             out: dict[Fact, int]) -> None:
    """Add ``<covector, dV/da_f - dV/db_f>`` to ``out[f]`` for every fact
    ``f`` below ``node``, where ``V`` is the node's count vector."""
    if isinstance(node, tuple):
        fact, sign = node
        out[fact] = sign * covector[0]
        return
    for i in range(len(node.factors) - 1, -1, -1):
        child = node.children[i]
        if child is not None:
            _reverse(child, _correlate(covector, node.prefixes[i]), out)
        if i:
            covector = _correlate(covector, node.factors[i])


def shapley_exact_all(db: Database, query: Query) -> dict[Fact, Fraction]:
    """Exact values for every endogenous fact, from one forward count and
    one reverse pass.

    Requires a single self-join-free hierarchical rule."""
    rule = _check_rule(query)
    vector, tree = _counts(list(rule.atoms), list(db.facts))
    n = len(vector) - 1
    numerators: dict[Fact, int] = {}
    if tree is not None:
        weights = [factorial(k) * factorial(n - 1 - k) for k in range(n)]
        _reverse(tree, weights, numerators)
    total = factorial(n)
    return {fact: Fraction(numerators.get(fact, 0), total)
            for fact in db.endogenous}


def shapley_exact(db: Database, query: Query, fact: Fact) -> Fraction:
    """Shapley value of an endogenous fact, in polynomial time.

    Requires a single self-join-free hierarchical rule; raises
    ``FactNotEndogenousError`` if the fact is exogenous or absent.
    """
    stored = db.get(*fact.key)
    if stored is None or not stored.endogenous:
        raise FactNotEndogenousError(
            f"fact {fact} is not an endogenous fact of the database"
        )
    return shapley_exact_all(db, query)[stored]

"""Exact attribution for hierarchical self-join-free rules.

The workhorse is :func:`_shapley`: one forward count, then one reverse
pass along the paths of the facts being valued.  The count gives, for each
``k``, the number of k-subsets of the endogenous facts that, together with
the exogenous facts, satisfy the query (:func:`count_satisfying_subsets`
returns it and nothing else).  It is the recursion of
:func:`shapfact.decompose.weighted_count` under the counting weighting:
an endogenous fact weighs ``x`` when present and ``1`` when absent, so
vectors are polynomials in ``x`` and the total over ``m`` endogenous facts
is the binomials of ``m``.  A ground atom over a present endogenous fact
is ``[0, 1]`` (positive) or ``[1, 0]`` (negated) and keeps a signed leaf
for the reverse pass; over an exogenous fact it is ``[1]`` or ``[0]``,
over a missing one ``[0]`` or ``[1]``.

**All facts from one count.**  Give every endogenous fact ``f`` a weight
``a_f`` when present and ``b_f`` when absent.  The recursion computes the
weighted count ``S``, which is multilinear in each fact's pair of weights:
``S = a_f * promoted_f + b_f * deleted_f``, where ``promoted_f`` and
``deleted_f`` count over the other ``n - 1`` facts with ``f`` made
exogenous or removed.  The Shapley value is::

    value(f) = sum_k  k! (n-1-k)! / n!  *  (promoted_f[k] - deleted_f[k])

and ``promoted_f - deleted_f = dS/da_f - dS/db_f``, so one reverse
(adjoint) pass over the recursion tree yields this difference for every
fact at once, already paired with the Shapley weights.  The pass pushes an
integer covector ``A`` down the tree, starting from ``W[k] = k! (n-1-k)!``
at the root, so that at every node ``<A, dV>`` is the contribution of the
node's facts:

* a node whose vector is a chain of convolutions ``P_i = P_{i-1} * F_i``
  (independent parts, or a root split's unsatisfying vectors) hands child
  ``i`` the covector ``corr(A_i, P_{i-1})`` and keeps ``A_{i-1} =
  corr(A_i, F_i)`` for the children to its left — no division, and no
  product of the siblings per child.  The factors without a subtree
  convolve first, so they sit in the prefixes and the pass never steps
  through them.  A product of one factor is that factor, and the covector
  passes to it unchanged;
* a root split ``S = T - prod U_v`` with ``U_v = T_v - S_v`` flips the sign
  twice, so the covector passes through unchanged; binomials such as ``T``
  have equal derivatives in ``a_f`` and ``b_f`` and drop out;
* an endogenous ground leaf is ``a_f`` (positive atom) or ``b_f``
  (negated), so its fact reads ``+A[0]`` or ``-A[0]``.  Facts the pass
  never reaches are null players and get 0.

All of this is integer arithmetic; each value is one ``Fraction`` over
``n!``, shared by the facts with the same numerator.  The weights are
built from ``W[0] = (n-1)!`` by ``W[k+1] = W[k] (k+1) / (n-1-k)``, not
from ``2n`` factorials.  The pass is linear in the covector, so it
starts from ``W[k] / g`` with ``g`` the gcd of the weights, and each
numerator is multiplied by ``g`` again: the weights share most of their
bits (at 832 facts, 5675 of 6867), and the pass's products shrink with
them.

**Only the targets' paths.**  The forward count keeps a leaf only for the
facts being valued, so every subtree without one is ``None`` and leaves
no chain entry.  Valuing all ``n`` facts costs about two counts instead of
``2n``; valuing one fact (:func:`shapley_exact`) costs about one count
plus one correlation per chain on the path from the root to its leaf.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, factorial, gcd
from operator import add, attrgetter, countOf, mul
from typing import Any, Collection, Optional, Sequence

from . import decompose
from .model import Atom, Database, Fact, Provenance, Query

CountVector = list[int]


def _binomials() -> decompose.Total:
    """The counting weighting's total: the binomials of the number of
    endogenous facts, each row built once per call of the recursion."""
    rows: dict[int, CountVector] = {}
    provenance = attrgetter("provenance")

    def total(facts: Sequence[Fact]) -> CountVector:
        n = countOf(map(provenance, facts), Provenance.ENDOGENOUS)
        row = rows.get(n)
        if row is None:
            row = rows[n] = [comb(n, k) for k in range(n + 1)]
        return row

    return total


def _ground(targets: Collection[Fact]) -> decompose.Ground:
    """The counting weighting's ground atoms: a count vector, and for an
    endogenous fact in ``targets`` the leaf ``(fact, +1)`` (positive atom)
    or ``(fact, -1)`` (negated)."""

    def ground(atom: Atom, fact: Optional[Fact]
               ) -> tuple[CountVector, Optional[tuple[Fact, int]]]:
        if fact is not None and fact.provenance is Provenance.ENDOGENOUS:
            sign = -1 if atom.negated else 1
            leaf = (fact, sign) if fact in targets else None
            return ([1, 0] if atom.negated else [0, 1]), leaf
        # an exogenous fact satisfies a positive atom, a missing one a
        # negated
        return [int((fact is not None) != atom.negated)], None

    return ground


def _correlate(a: Sequence[int], b: Sequence[int]) -> CountVector:
    """``out[t] = sum_s a[s + t] * b[s]``: the covector of one convolution
    factor given the covector ``a`` of the product and the other factor
    ``b``."""
    width, length = len(b), len(a) - len(b) + 1
    if width > length:
        return [sum(map(mul, a[t:t + width], b)) for t in range(length)]
    # the shorter loop: each entry of ``b`` adds a slice of ``a``
    out = [0] * length
    for s, y in enumerate(b):
        if y:
            out = list(map(add, out, map(mul, a[s:s + length], repeat(y))))
    return out


def count_satisfying_subsets(db: Database, query: Query) -> CountVector:
    """The vector ``v`` with ``v[k]`` = number of k-subsets of the
    endogenous facts satisfying the query together with the exogenous ones.

    Requires a single self-join-free hierarchical rule.
    """
    return decompose.weighted_count(query, db.facts, _binomials(),
                                    _ground(()))[0]


def _reverse(node: Any, covector: CountVector, out: dict[Fact, int]) -> None:
    """Add ``<covector, dV/da_f - dV/db_f>`` to ``out[f]`` for every fact
    ``f`` below ``node`` (a leaf or a chain of
    :func:`shapfact.decompose.weighted_count`'s tree), where ``V`` is the
    node's count vector."""
    if isinstance(node, tuple):
        fact, sign = node
        out[fact] = sign * covector[0]
        return
    for i in range(len(node) - 1, -1, -1):
        prefix, factor, child = node[i]
        _reverse(child, _correlate(covector, prefix), out)
        if i:
            covector = _correlate(covector, factor)


def _shapley(db: Database, query: Query, targets: Sequence[Fact]
             ) -> dict[Fact, Fraction]:
    """Exact values for ``targets``, endogenous facts of ``db``, from one
    forward count and the reverse pass along the targets' paths."""
    vector, tree = decompose.weighted_count(query, db.facts, _binomials(),
                                            _ground(frozenset(targets)))
    n = len(vector) - 1
    numerators: dict[Fact, int] = {}
    scale = 1
    if tree is not None:
        # k! (n-1-k)!, each from the one before
        weights = [factorial(n - 1)]
        for k in range(n - 1):
            weights.append(weights[k] * (k + 1) // (n - 1 - k))
        scale = gcd(*weights)
        _reverse(tree, [w // scale for w in weights], numerators)
    # few distinct numerators, each one Fraction
    total = factorial(n)
    values = {v: Fraction(v * scale, total)
              for v in {0, *numerators.values()}}
    return {fact: values[numerators.get(fact, 0)] for fact in targets}


def shapley_exact_all(db: Database, query: Query) -> dict[Fact, Fraction]:
    """Exact values for every endogenous fact, from one forward count and
    one reverse pass.

    Requires a single self-join-free hierarchical rule."""
    return _shapley(db, query, db.endogenous)


def shapley_exact(db: Database, query: Query, fact: Fact) -> Fraction:
    """Shapley value of an endogenous fact, in polynomial time: one
    forward count, and the reverse pass along the fact's own path.

    Requires a single self-join-free hierarchical rule; raises
    ``FactNotEndogenousError`` if the fact is exogenous or absent.
    """
    stored = db.require_endogenous(fact)
    return _shapley(db, query, (stored,))[stored]

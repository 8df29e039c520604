"""Query probability over tuple-independent databases.

Every fact carries a probability (facts without one are deterministic,
probability 1) and is present in a random world independently of all
others.  The probability that the query holds is computed three ways:

* :func:`brute_prob` — weigh every world over the properly
  probabilistic facts; the exact-by-definition oracle.  It reads the
  bitset truth table of :class:`shapfact.naive.SubsetOracle`, as the
  other enumeration oracles do.
* :func:`prob_eval_hierarchical` — lifted inference for hierarchical
  self-join-free rules: the recursion of
  :func:`shapfact.decompose.weighted_count`, which also drives exact
  counting, under the probability weighting.  A fact weighs ``p`` when
  present and ``1 - p`` when absent, so every vector is one probability,
  the worlds over any facts weigh ``[1]`` in total, and a ground atom is
  ``[p]`` (positive) or ``[1 - p]`` (negated), ``p = 0`` for a missing
  fact.
* :func:`prob_eval` — first rewrite away the relations the schema
  declares ``exogenous``, whose facts must be deterministic (see
  :mod:`shapfact.rewriting`), then run the lifted engine.  Rules that keep
  a non-hierarchical path through ordinary relations are refused with the
  witness attached.

All arithmetic is exact.  In the lifted engine a ground atom over a
missing fact, or over one of probability 0 or 1, is the ``int`` 0 or 1;
over any other fact it is an unreduced rational, numerator over
denominator.  A product multiplies numerators and denominators, ``1 - v``
keeps ``v``'s denominator, and no step takes a gcd: the one
:class:`fractions.Fraction` is built, and reduced, at the end."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from . import decompose
from .errors import CapExceededError
from .model import Atom, Database, Fact, Provenance, Query
from .naive import DEFAULT_CAP, SubsetOracle
from .rewriting import rewrite


def fact_probability(fact: Fact) -> Fraction:
    """A fact's presence probability; facts without one are certain."""
    if fact.probability is None:
        return Fraction(1)
    return fact.probability


def brute_prob(db: Database, query: Query, cap: int = DEFAULT_CAP) -> Fraction:
    """The query's probability, summed over the worlds of the properly
    probabilistic facts.

    The worlds are the coalitions of :class:`naive.SubsetOracle` over a
    copy of ``db`` in which those facts are endogenous, the certain ones
    exogenous and the impossible ones (p = 0) dropped.  Its truth table is
    weighed by Shannon splits from the highest fact down: at each level
    every distinct subtable carries the weight of the worlds over the
    facts above it that lead to it, the half without the fact takes
    ``1 - p`` of it and the half with the fact ``p``, and equal halves
    merge.  The weights are integers over the product of the denominators
    so far, reduced once at the end.  Besides the oracle's ``(2n + 2) *
    2^n / 8`` bytes, a level holds at most ``2^n`` bits of subtables, and
    two levels are live at once."""
    uncertain = [f for f in db.facts if 0 < fact_probability(f) < 1]
    if len(uncertain) > cap:
        raise CapExceededError(
            f"{len(uncertain)} probabilistic facts exceed the enumeration "
            f"cap {cap}"
        )
    worlds = Database(db.schema, [
        Fact(f.relation, f.args, Provenance.ENDOGENOUS
             if fact_probability(f) < 1 else Provenance.EXOGENOUS)
        for f in db.facts if fact_probability(f) > 0])
    # both lists hold the uncertain facts in canonical order, so bit i of
    # a world is uncertain[i]
    level, denominator = {SubsetOracle(worlds, query, cap).sat_table(): 1}, 1
    for i in reversed(range(len(uncertain))):
        p = fact_probability(uncertain[i])
        absent, half = p.denominator - p.numerator, 1 << i
        low_bits = (1 << half) - 1
        split: dict[int, int] = {}
        for table, weight in level.items():
            low, high = table & low_bits, table >> half
            split[low] = split.get(low, 0) + weight * absent
            split[high] = split.get(high, 0) + weight * p.numerator
        level, denominator = split, denominator * p.denominator
    return Fraction(level.get(1, 0), denominator)


def prob_eval_hierarchical(db: Database, query: Query) -> Fraction:
    """Lifted inference for a hierarchical self-join-free rule."""
    vector, _tree = decompose.weighted_count(query, db.facts, _total, _ground)
    # a _Ratio, or an int where no uncertain fact reaches a ground atom
    value = vector[0]
    return Fraction(value.numerator, value.denominator)


class _Ratio:
    """An unreduced rational ``numerator / denominator``, with the only
    operations the recursion takes: products and ``1 - v``.  An ``int``
    multiplies as the ratio of itself over 1, through its own
    ``numerator`` and ``denominator``.  A value's denominator is the
    product of its uncertain facts' denominators; reducing once, at the
    end, saves the gcd ``Fraction`` takes after every operation."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator

    def __mul__(self, other: Union["_Ratio", int]) -> "_Ratio":
        return _Ratio(self.numerator * other.numerator,
                      self.denominator * other.denominator)

    __rmul__ = __mul__

    def __rsub__(self, other: int) -> "_Ratio":
        return _Ratio(other * self.denominator - self.numerator,
                      self.denominator)


def _total(facts: Sequence[Fact]) -> list[int]:
    return [1]


def _ground(atom: Atom, fact: Optional[Fact]
            ) -> tuple[list[Union[_Ratio, int]], None]:
    """A ground atom's probability: an int for a certain, impossible or
    missing fact, else a ``_Ratio``."""
    p = 0 if fact is None else fact.probability
    if p is None:  # a certain fact
        p = 1
    numerator, denominator = p.numerator, p.denominator
    if atom.negated:
        numerator = denominator - numerator
    if denominator == 1:
        return [numerator], None
    return [_Ratio(numerator, denominator)], None


def prob_eval(db: Database, query: Query) -> Fraction:
    """Query probability after rewriting away deterministic relations.

    The relations the schema declares ``exogenous`` must hold only
    deterministic facts, which the rewrite checks (``BadProbabilityError``)
    before it eliminates them; the lifted engine prices the rest.  Raises
    ``HasNonHierPathError`` (with witness) when a non-hierarchical path
    survives, ``SelfJoinError`` on repeated relations."""
    new_db, new_rule, _trace = rewrite(db, query)
    return prob_eval_hierarchical(new_db, new_rule)

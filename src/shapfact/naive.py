"""The join every engine shares, and the brute-force references.

Two kinds of code live here.  The first is shared machinery, which other
engines run on their own paths, so its speed matters:

* the probe-table join, :class:`_Index` and :func:`iter_homomorphisms`
  (each atom's matches read from a table keyed on its bound positions),
  with :func:`_match`: relevance scans its assignments with them, the
  exogenous rewrite filters and joins with them, and the shared counting
  recursion (``decompose``) routes each fact to its atoms by ``_match``;
* :func:`ground`, the facts an assignment lands on, which relevance and
  the profiles read, and :func:`eval_boolean`, a query's truth on one
  world, with which relevance tests each coalition it builds;
* :func:`hom_profiles`, the join run once into profiles, which the
  sampler (``approx``) and the subset oracle read.

The second is the enumeration oracles, which the polynomial-time engines
are tested against (and which ``--method brute`` runs), so clarity beats
speed: :class:`SubsetOracle` and the ``brute_*`` functions enumerate all
subsets of the endogenous facts.  The truth table over the ``2^n``
subsets is one int of ``2^n`` bits, read off the profiles with
big-integer ANDs and ORs.  For each fact, a few more ANDs and popcounts
over that table find every flip the fact causes, which gives both its
value and its relevance.

The attribution being computed: with the exogenous facts always present, a
coalition is a set ``E`` of endogenous facts, its worth is the truth value
of the query on ``exogenous ∪ E``, and a fact's value is its Shapley value
in that coalitional game::

    value(f)  =  sum over E ⊆ endo \\ {f} of
                 |E|! (n - 1 - |E|)! / n!  *  (worth(E ∪ {f}) - worth(E))

where ``n`` is the number of endogenous facts.  The flips give each
fact's gains by coalition size ``k``; their weighted sum is taken over the
integers ``k! (n - 1 - k)!`` and divided by ``n!`` once, into one
``Fraction`` per fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import CapExceededError, InputError
from .model import (
    Atom,
    Const,
    CQNeg,
    Database,
    Fact,
    Provenance,
    Query,
    RelationSym,
    Schema,
    UCQNeg,
    Var,
    disjuncts_of,
)

#: Default ceiling on the number of endogenous facts the subset enumeration
#: will accept (2^cap worlds).  The CLI's ``--cap`` overrides it.
DEFAULT_CAP = 20


# ---------------------------------------------------------------------------
# homomorphism search
# ---------------------------------------------------------------------------


class _Index(dict):
    """Relation name -> sorted argument tuples, with probe tables.

    A probe table serves one atom shape: which positions are bound (to a
    constant or an assigned variable) and where each free variable first
    occurs.  It maps the bound values to the tuples that carry them and
    repeat each free variable's value wherever the variable repeats, in
    sorted order.  Each is built on the first probe of its shape."""

    def __init__(self, by_rel: Mapping[str, list[tuple[str, ...]]]):
        super().__init__(by_rel)
        self._probes: dict[tuple, tuple[Callable, dict]] = {}

    def candidates(self, atom: Atom, binding: Mapping[str, str]
                   ) -> tuple[dict[str, int], list[tuple[str, ...]]]:
        """The atom's unbound variables, each with its first position, and
        the tuples that ``_match`` accepts under ``binding``, sorted."""
        shape, values, free = [], [], {}
        for at, term in enumerate(atom.terms):
            value = (term.value if isinstance(term, Const)
                     else binding.get(term.name))
            values.append(value)
            shape.append(-1 if value is not None
                         else free.setdefault(term.name, at))
        key = (atom.relation.name, tuple(shape))
        if key not in self._probes:
            self._probes[key] = self._table(*key)
        probe, table = self._probes[key]
        return free, table.get(probe(values), [])

    def _table(self, name: str, shape: tuple[int, ...]
               ) -> tuple[Callable, dict[object, list[tuple[str, ...]]]]:
        """The probe table of one atom shape, and the function that reads
        the bound positions of a tuple or of an atom's probe values."""
        rows = [args for args in self.get(name, ()) if len(args) == len(shape)]
        for at, first in enumerate(shape):
            if 0 <= first != at:
                rows = [args for args in rows if args[at] == args[first]]
        probe = _reader([at for at, first in enumerate(shape) if first < 0])
        table: dict[object, list[tuple[str, ...]]] = {}
        for args in rows:
            table.setdefault(probe(args), []).append(args)
        return probe, table


def _reader(items: Sequence) -> Callable:
    """Reads ``items`` out of a sequence or a mapping as one key."""
    return itemgetter(*items) if items else lambda _: ()


def _index(facts: Iterable[Fact]) -> _Index:
    """Relation name -> sorted argument tuples."""
    by_rel: dict[str, set[tuple[str, ...]]] = {}
    for f in facts:
        by_rel.setdefault(f.relation.name, set()).add(f.args)
    return _Index({name: sorted(args) for name, args in by_rel.items()})


def _match(atom: Atom, args: tuple[str, ...],
           binding: Mapping[str, str]) -> Optional[dict[str, str]]:
    """The new variable bindings needed for ``atom`` to hit ``args``, or
    None if constants or existing bindings disagree."""
    if len(args) != len(atom.terms):
        return None
    new: dict[str, str] = {}
    for term, value in zip(atom.terms, args):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            bound = binding.get(term.name, new.get(term.name))
            if bound is None:
                new[term.name] = value
            elif bound != value:
                return None
    return new


def iter_homomorphisms(atoms: Iterable[Atom], index: _Index,
                       binding: Optional[Mapping[str, str]] = None
                       ) -> Iterator[dict[str, str]]:
    """All assignments sending every (positive) atom into the indexed facts.

    At each step the atom with the fewest matching tuples under the current
    partial assignment is expanded first; with the sorted index this makes
    the enumeration order deterministic.  An atom's matching tuples come
    from one probe of its bound positions (see :class:`_Index`), in the
    sorted order a scan of its relation would find them.
    """
    yield from _search(list(atoms), index, dict(binding or {}))


def _search(atoms: list[Atom], index: _Index,
            binding: dict[str, str]) -> Iterator[dict[str, str]]:
    if not atoms:
        yield dict(binding)
        return
    best_at, best, free = 0, None, {}
    for i, atom in enumerate(atoms):
        names, cands = index.candidates(atom, binding)
        if best is None or len(cands) < len(best):
            best_at, best, free = i, cands, names
            if not cands:
                return
    rest = atoms[:best_at] + atoms[best_at + 1:]
    assert best is not None
    for args in best:
        for name, at in free.items():
            binding[name] = args[at]
        yield from _search(rest, index, binding)
        for name in free:
            del binding[name]


def eval_boolean(world: Iterable[Fact], query: Query) -> bool:
    """Truth value of the query on the given set of facts (a ``Database``
    iterates over its own)."""
    facts = tuple(world)
    index = _index(facts)
    present = {f.key for f in facts}
    for disjunct in disjuncts_of(query):
        for h in iter_homomorphisms(disjunct.positives, index):
            if all(_image(atom, h) not in present
                   for atom in disjunct.negatives):
                return True
    return False


# ---------------------------------------------------------------------------
# per-world profiles
# ---------------------------------------------------------------------------


def _image(atom: Atom, h: Mapping[str, str]) -> tuple[str, tuple[str, ...]]:
    """The key of the fact that the assignment sends the atom onto."""
    return (atom.relation.name,
            tuple(h[t.name] if isinstance(t, Var) else t.value
                  for t in atom.terms))


def ground(db: Database, rule: CQNeg, homs: Iterable[dict[str, str]]
           ) -> Iterator[tuple[dict[str, str], list[Fact], list[Fact]]]:
    """Each assignment of ``homs`` with the endogenous facts of ``db`` that
    the rule's positive atoms and its negated atoms land on.

    An assignment that sends a negated atom onto an exogenous fact can
    never fire, so it is skipped.  Landing on a fact outside ``db`` adds
    nothing."""
    stored = db.by_key
    positives, negatives = rule.positives, rule.negatives
    for h in homs:
        pos = [f for f in (stored.get(_image(a, h)) for a in positives)
               if f is not None and f.endogenous]
        neg: list[Fact] = []
        for atom in negatives:
            fact = stored.get(_image(atom, h))
            if fact is None:
                continue
            if not fact.endogenous:
                break
            neg.append(fact)
        else:
            yield h, pos, neg


def hom_profiles(db: Database, query: Query
                 ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Compress the query into conditions on endogenous facts.

    Every assignment that sends the positive atoms into the *full* database
    and no negative atom onto an exogenous fact is summarised as a pair
    ``(P, N)`` of endogenous fact indices: the assignment witnesses the
    query on ``exogenous ∪ E`` iff ``P ⊆ E`` and ``N ∩ E = ∅``.  The query
    is true on a world iff some profile fires, because a world's
    assignments are exactly the full-database assignments whose positive
    images survive in it.
    """
    bit = {f: i for i, f in enumerate(db.endogenous)}
    index = _index(db.facts)
    profiles: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for disjunct in disjuncts_of(query):
        homs = iter_homomorphisms(disjunct.positives, index)
        for _h, pos, neg in ground(db, disjunct, homs):
            profiles.add((tuple(sorted({bit[f] for f in pos})),
                          tuple(sorted({bit[f] for f in neg}))))
    return sorted(profiles)


class SubsetOracle:
    """Query truth over all ``2^n`` endogenous subsets, via profiles.

    A subset ``E`` is a mask whose bit ``i`` is set iff the ``i``-th
    endogenous fact is in ``E``.  A set of subsets is one int of ``2^n``
    bits, bit ``E`` set iff ``E`` is in the set.  On first use
    (:meth:`sat_table`) the oracle builds three kinds of such ints: the
    truth table, the ``n`` fact masks (the subsets holding fact ``i``)
    and the ``n + 1`` size masks (the subsets of size ``k``).  Every
    per-fact question is then a few big-integer ANDs and popcounts
    (:meth:`flips`).  The ``2n + 2`` ints hold about
    ``(2n + 2) * 2^n / 8`` bytes: 0.3 MB at 16 facts, 5.5 MB at the
    default cap of 20."""

    def __init__(self, db: Database, query: Query, cap: int = DEFAULT_CAP):
        n = db.n_endogenous
        if n > cap:
            raise CapExceededError(
                f"{n} endogenous facts exceed the brute-force cap {cap}"
            )
        self.db = db
        self.n = n
        self.profiles = hom_profiles(db, query)
        # None until sat_table builds it, and with it _holds and _sizes
        self._table: Optional[int] = None

    def sat_table(self) -> int:
        """The truth table: bit ``E`` is set iff the query holds on
        ``exogenous ∪ E``, that is iff some profile ``(P, N)`` has
        ``P ⊆ E`` and ``N ∩ E = ∅``.

        The first call builds it, with the fact and size masks, and
        every later call returns the same int."""
        if self._table is None:
            n, worlds = self.n, 1 << self.n
            holds = []
            for i in range(n):
                # 2^i subsets without fact i, then 2^i with it, repeated
                mask, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
                while period < worlds:
                    mask |= mask << period
                    period <<= 1
                holds.append(mask)
            sizes = [1] + [0] * n
            for i in range(n):
                # a k-subset of facts 0..i adds fact i to a (k-1)-subset
                # of facts 0..i-1, or leaves it out
                for k in range(i + 1, 0, -1):
                    sizes[k] |= sizes[k - 1] << (1 << i)
            full = (1 << worlds) - 1
            table = 0
            for pos, neg in self.profiles:
                fires = full
                for i in pos:
                    fires &= holds[i]
                for i in neg:
                    fires &= ~holds[i]
                table |= fires
            self._holds, self._sizes, self._table = holds, sizes, table
        return self._table

    def endo_bit(self, fact: Fact) -> int:
        return self.db.endogenous.index(self.db.require_endogenous(fact))

    def flips(self, bit: int
              ) -> tuple[list[int], Optional[int], Optional[int]]:
        """The coalitions without fact ``bit`` whose truth value adding
        the fact changes.

        Returns ``gains``, where ``gains[k]`` is the number of k-coalitions
        the fact makes true minus the number it makes false, then the
        lowest mask the fact flips to true and the lowest it flips to
        false (None when there is none)."""
        table = self.sat_table()
        holds = self._holds[bit]
        # bit E of each, for E without the fact: the truth of E, and of
        # E with the fact (shifting clears the fact's bit)
        before = table & ~holds
        after = (table & holds) >> (1 << bit)
        gain, loss = after & ~before, before & ~after
        gains = [(gain & size).bit_count() - (loss & size).bit_count()
                 for size in self._sizes[:self.n]]
        return gains, _lowest(gain), _lowest(loss)


def _lowest(coalitions: int) -> Optional[int]:
    """The lowest mask in a set of coalitions, or None if it is empty."""
    return (coalitions & -coalitions).bit_length() - 1 if coalitions else None


# ---------------------------------------------------------------------------
# brute-force attribution
# ---------------------------------------------------------------------------


def brute_count_satisfying(db: Database, query: Query,
                           cap: int = DEFAULT_CAP) -> list[int]:
    """``result[k]`` = number of k-subsets ``E`` of the endogenous facts
    with the query true on ``exogenous ∪ E``."""
    oracle = SubsetOracle(db, query, cap)
    table = oracle.sat_table()
    return [(table & size).bit_count() for size in oracle._sizes]


def _weigh(gains: list[int]) -> Fraction:
    """The Shapley value of a fact from its gains by coalition size: the
    integer sum of ``k! (n-1-k)! * gains[k]``, divided once by ``n!``."""
    n = len(gains)
    return Fraction(sum(factorial(k) * factorial(n - 1 - k) * g
                        for k, g in enumerate(gains) if g), factorial(n))


def brute_shapley(db: Database, query: Query, fact: Fact,
                  cap: int = DEFAULT_CAP) -> Fraction:
    """Shapley value of ``fact`` by enumerating all coalitions."""
    oracle = SubsetOracle(db, query, cap)
    return _weigh(oracle.flips(oracle.endo_bit(fact))[0])


def brute_shapley_all(db: Database, query: Query,
                      cap: int = DEFAULT_CAP) -> dict[Fact, Fraction]:
    """Shapley values of every endogenous fact (one shared truth table)."""
    oracle = SubsetOracle(db, query, cap)
    return {
        fact: _weigh(oracle.flips(bit)[0])
        for bit, fact in enumerate(db.endogenous)
    }


# ---------------------------------------------------------------------------
# brute-force relevance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteRelevance:
    """Ground truth for the relevance tests.

    ``pos_witness`` is the lowest coalition (by mask) not satisfying the
    query that does once the fact is added; ``neg_witness`` the mirror
    image.  Each is None when the fact flips no coalition that way."""

    pos_witness: Optional[tuple[Fact, ...]]
    neg_witness: Optional[tuple[Fact, ...]]

    @property
    def pos_relevant(self) -> bool:
        return self.pos_witness is not None

    @property
    def neg_relevant(self) -> bool:
        return self.neg_witness is not None

    @property
    def relevant(self) -> bool:
        return self.pos_relevant or self.neg_relevant


def brute_relevance(db: Database, query: Query, fact: Fact,
                    cap: int = DEFAULT_CAP) -> BruteRelevance:
    """Scan all coalitions for ones whose truth value the fact flips."""
    oracle = SubsetOracle(db, query, cap)
    _gains, pos, neg = oracle.flips(oracle.endo_bit(fact))
    endo = db.endogenous
    unpack = lambda m: None if m is None else tuple(
        f for i, f in enumerate(endo) if m >> i & 1)
    return BruteRelevance(unpack(pos), unpack(neg))


# ---------------------------------------------------------------------------
# the vanishing-value family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapInstance:
    """A scalable instance whose distinguished fact has value
    ``n! n! / (2n+1)!`` — positive, but exponentially small.

    It separates additive from multiplicative approximation: an additive
    estimator may round the value to 0, which any multiplicative guarantee
    must not."""

    db: Database
    query: UCQNeg
    fact: Fact
    n: int

    @property
    def expected_value(self) -> Fraction:
        return Fraction(factorial(self.n) ** 2, factorial(2 * self.n + 1))


def gen_gap_instance(n: int) -> GapInstance:
    """Build the n-th vanishing-value instance.

    Query: ``q() :- R(x), S(x, y), not R(y).`` with S exogenous.  The
    distinguished fact only matters once all n blocker facts have arrived
    and none of the n alternative witnesses has, so exactly one coalition
    (of size n out of 2n+1) is flipped.
    """
    if n < 1:
        raise InputError(f"n must be at least 1, got {n}")
    rel_r = RelationSym("R", 1)
    rel_s = RelationSym("S", 2, exogenous_only=True)
    schema = Schema([rel_r, rel_s])
    facts: list[Fact] = []
    for i in range(2 * n + 1):
        facts.append(Fact(rel_s, (f"cx_{i}", f"cy_{i}"), Provenance.EXOGENOUS))
    for i in range(1, n + 1):
        facts.append(Fact(rel_r, (f"cx_{i}",), Provenance.EXOGENOUS))
        facts.append(Fact(rel_r, (f"cy_{i}",), Provenance.ENDOGENOUS))
    distinguished = Fact(rel_r, ("cx_0",), Provenance.ENDOGENOUS)
    facts.append(distinguished)
    for i in range(n + 1, 2 * n + 1):
        facts.append(Fact(rel_r, (f"cx_{i}",), Provenance.ENDOGENOUS))
    query = UCQNeg((CQNeg((
        Atom(rel_r, (Var("x"),)),
        Atom(rel_s, (Var("x"), Var("y"))),
        Atom(rel_r, (Var("y"),), negated=True),
    )),))
    db = Database(schema, facts)
    return GapInstance(db=db, query=query, fact=distinguished, n=n)

"""Deciding whether a fact's attribution is zero, without computing it.

A fact is *positively relevant* if adding it flips some coalition from
false to true, *negatively relevant* if it flips one from true to false,
and its Shapley value is non-zero exactly when it is relevant either way.
:func:`relevance` decides this in polynomial time for queries, unions
included, in which every relation occurs with a single polarity.  Such a
query is monotone in each relation: adding a fact of a positive relation
never makes it false, adding one of a negated relation never makes it
true.  So a fact can flip the query only in the direction of its
relation's polarity (a relation the query never names flips nothing), and
that one direction is the only one scanned.  For each assignment of a rule
that could carry the flip, one coalition is the extreme case worth testing:

* positive side — the assignment sends a positive atom onto the fact; the
  candidate is its endogenous positive images (minus the fact) plus every
  endogenous fact of a relation negated *anywhere in the union* that the
  assignment's negated atoms do not hit, and the fact is relevant iff that
  coalition does not already satisfy the query.
* negative side — the assignment sends a negated atom onto the fact; the
  candidate is built the same way, and the fact is relevant iff the query
  fails once the fact joins.

Keeping the negated facts of every rule, not only the assignment's own,
matters for unions: a negated atom of another rule may be what keeps the
candidate from satisfying the query.  The assignments and their images
come from :func:`shapfact.naive.ground`, the step the brute-force
profiles use too.

Witnesses are returned and are replayable: the coalition really is flipped
by the fact, which the tests re-check against plain evaluation.  For
queries mixing polarities the problem is as hard as satisfiability, so
they are refused rather than answered unreliably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import NotPolarityConsistentError
from .model import CQNeg, Database, Fact, Query, disjuncts_of
from .naive import (_index, _Index, _match, eval_boolean, ground,
                    iter_homomorphisms)
from .structure import relation_polarities


@dataclass(frozen=True)
class RelevanceWitness:
    """A replayable certificate: ``coalition`` does not contain the fact,
    and adding the fact flips the query's truth value in the direction
    given by ``side``."""

    side: str  # "positive" | "negative"
    assignment: tuple[tuple[str, str], ...]
    coalition: tuple[Fact, ...]
    disjunct: int


@dataclass(frozen=True)
class RelevanceResult:
    """The verdicts are read off the witness: a fact is relevant iff some
    coalition is flipped, in the direction of the witness's side."""

    witness: Optional[RelevanceWitness]

    @property
    def relevant(self) -> bool:
        return self.witness is not None

    @property
    def pos_relevant(self) -> bool:
        return self.witness is not None and self.witness.side == "positive"

    @property
    def neg_relevant(self) -> bool:
        return self.witness is not None and self.witness.side == "negative"


def _assignments(rule: CQNeg, fact: Fact, side: str, index: _Index
                 ) -> Iterator[dict[str, str]]:
    """The rule's assignments that could carry a flip on ``side``: those
    anchoring a positive atom on the fact, or, for the negative side, all
    of them when some negated atom shares the fact's relation."""
    name = fact.relation.name
    if side == "negative":
        if any(a.relation.name == name for a in rule.negatives):
            yield from iter_homomorphisms(rule.positives, index)
        return
    positives = list(rule.positives)
    for at, anchor in enumerate(positives):
        if anchor.relation.name != name:
            continue
        seed = _match(anchor, fact.args, {})
        if seed is not None:
            others = positives[:at] + positives[at + 1:]
            yield from iter_homomorphisms(others, index, seed)


def relevance(db: Database, query: Query, fact: Fact) -> RelevanceResult:
    """Is the fact relevant?  Only the direction of its relation's polarity
    is scanned (positive when the query never names the relation); the
    witness is the first flipped coalition, in rule order.

    Raises ``FactNotEndogenousError`` unless the fact is an endogenous
    fact of the database, and ``NotPolarityConsistentError`` when some
    relation occurs both positively and negatively."""
    fact = db.require_endogenous(fact)
    polarity = relation_polarities(query)
    if "mixed" in polarity.values():
        raise NotPolarityConsistentError(
            "some relation occurs both positively and negatively; the "
            "relevance test does not apply")
    side = polarity.get(fact.relation.name, "positive")
    kept = {f for f in db.endogenous
            if polarity.get(f.relation.name) == "negative"}
    exo = list(db.exogenous)
    # on the negative side the fact joins the coalition's world
    joined = [fact] if side == "negative" else []
    index = _index(db.facts)
    for d, rule in enumerate(disjuncts_of(query)):
        homs = _assignments(rule, fact, side, index)
        for h, pos, neg in ground(db, rule, homs):
            if fact not in (pos if side == "positive" else neg):
                continue
            coalition = sorted((set(pos) | kept.difference(neg)) - {fact},
                               key=lambda f: f.key)
            if not eval_boolean(exo + coalition + joined, query):
                return RelevanceResult(RelevanceWitness(
                    side, tuple(sorted(h.items())), tuple(coalition), d))
    return RelevanceResult(None)


def shapley_is_zero(db: Database, query: Query, fact: Fact) -> bool:
    """True iff the fact's Shapley value is exactly zero (equivalently:
    the fact is relevant in neither direction)."""
    return not relevance(db, query, fact).relevant

"""Structural analysis of queries: the dividing lines between the
tractable and intractable cases of fact attribution.

The analyses here are purely syntactic.  The central notions:

* **hierarchical**: for every two variables, the sets of atoms containing
  them are nested or disjoint.  Hierarchical self-join-free queries admit
  exact attribution in polynomial time.
* **non-hierarchical path** (relative to the exogenous relations, those
  the schema declares ``exogenous``): a connectivity pattern between two
  non-exogenous atoms that survives even when every exogenous relation is
  fixed.  Its absence is what the exogenous rewrite needs; its presence
  makes attribution #P-hard.
* **polarity consistency**: every relation occurs only positively or only
  negatively; the relevance algorithms require it.

All witness-producing functions are deterministic: they scan atom indices
and variable names in sorted order, so repeated runs return identical
witnesses.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from .model import Atom, CQNeg, Query, disjuncts_of

# ---------------------------------------------------------------------------
# basic structure
# ---------------------------------------------------------------------------


def is_self_join_free(query: CQNeg) -> bool:
    """True iff every relation occurs in at most one atom (any polarity)."""
    seen: set[str] = set()
    for atom in query.atoms:
        if atom.relation.name in seen:
            return False
        seen.add(atom.relation.name)
    return True


def _atom_vars(query: CQNeg) -> list[frozenset[str]]:
    return [frozenset(a.variables) for a in query.atoms]


@dataclass(frozen=True)
class TripletWitness:
    """Three atoms certifying non-hierarchy: ``atom_x`` contains ``x`` but
    not ``y``, ``atom_xy`` contains both, ``atom_y`` contains ``y`` but not
    ``x``."""

    atom_x: Atom
    atom_xy: Atom
    atom_y: Atom
    x: str
    y: str


def find_non_hierarchical_triplet(query: CQNeg) -> Optional[TripletWitness]:
    """The lexicographically least witness triplet, or None if the query is
    hierarchical.

    Scans atom-index triples (i, j, k) in lexicographic order, looking for a
    variable in atoms i and j but not k, and one in j and k but not i; the
    least qualifying variable names are reported.
    """
    vars_of = _atom_vars(query)
    n = len(query.atoms)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            shared_ij = vars_of[i] & vars_of[j]
            if not shared_ij:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                xs = sorted(shared_ij - vars_of[k])
                ys = sorted((vars_of[j] & vars_of[k]) - vars_of[i])
                if xs and ys:
                    return TripletWitness(
                        query.atoms[i], query.atoms[j], query.atoms[k],
                        xs[0], ys[0],
                    )
    return None


def is_hierarchical(query: CQNeg) -> bool:
    """True iff for all variables u, v the atom sets containing them are
    nested or disjoint, that is, iff no witness triplet exists."""
    return find_non_hierarchical_triplet(query) is None


# ---------------------------------------------------------------------------
# exogenous relations and the non-hierarchical path
# ---------------------------------------------------------------------------


def resolve_exogenous(query: CQNeg) -> frozenset[str]:
    """The exogenous relation names: those the query's atoms mark
    ``exogenous_only``, as the schema declares them."""
    return frozenset(a.relation.name for a in query.atoms
                     if a.relation.exogenous_only)


def exogenous_variables(query: CQNeg) -> frozenset[str]:
    """Variables that occur in exogenous atoms only."""
    in_exo: set[str] = set()
    in_rest: set[str] = set()
    for atom in query.atoms:
        target = in_exo if atom.relation.exogenous_only else in_rest
        target.update(atom.variables)
    return frozenset(in_exo - in_rest)


def split_components(variables: Sequence[Collection[str]]
                     ) -> list[list[int]]:
    """Indices of atoms, given by their variables, grouped into
    variable-sharing connected components, ordered by smallest member
    index.  Atoms without variables form singletons."""
    parent = list(range(len(variables)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[str, int] = {}
    for i, names in enumerate(variables):
        for v in names:
            if v in by_var:
                rep = find(by_var[v])
                parent[find(i)] = rep
            else:
                by_var[v] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(variables)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def exogenous_atom_components(query: CQNeg
                              ) -> tuple[tuple[Atom, ...], ...]:
    """Connected components of the exogenous atoms, each in rule order,
    ordered by their first atom.

    Two exogenous atoms are adjacent iff they share an exogenous-only
    variable; sharing a variable that also occurs outside the exogenous
    atoms does not connect them.
    """
    exo_vars = exogenous_variables(query)
    members = [a for a in query.atoms if a.relation.exogenous_only]
    groups = split_components([[v for v in a.variables if v in exo_vars]
                               for a in members])
    return tuple(tuple(members[i] for i in group) for group in groups)


def gaifman_adjacency(query: CQNeg) -> dict[str, set[str]]:
    """Variable co-occurrence graph over all atoms of the query."""
    adj: dict[str, set[str]] = {v: set() for v in query.variables}
    for atom in query.atoms:
        vs = atom.variables
        for a in vs:
            for b in vs:
                if a != b:
                    adj[a].add(b)
    return adj


@dataclass(frozen=True)
class PathWitness:
    """Two non-exogenous atoms plus a variable path connecting their
    private variables ``x`` and ``y`` outside the deleted vertex set."""

    atom_x: Atom
    atom_y: Atom
    x: str
    y: str
    path: tuple[str, ...]

    def __str__(self) -> str:
        route = "-".join(self.path)
        return f"({self.atom_x}, {self.atom_y}) via {route}"


def has_non_hierarchical_path(query: CQNeg) -> Optional[PathWitness]:
    """Find a non-hierarchical path relative to the exogenous relations.

    Sought: two atoms with relations outside the exogenous set, a variable
    ``x`` occurring in the first but not the second, a variable ``y``
    occurring in the second but not the first, and an x–y path in the
    co-occurrence graph after deleting every other variable of the two
    atoms.  Deterministic: least atom-index pair, then least (x, y), then a
    shortest path by BFS with sorted neighbour order.
    """
    adj = gaifman_adjacency(query)
    candidates = [i for i, a in enumerate(query.atoms)
                  if not a.relation.exogenous_only]
    vars_of = _atom_vars(query)
    for ai in candidates:
        for bi in candidates:
            if bi <= ai:
                continue
            va, vb = vars_of[ai], vars_of[bi]
            for xv in sorted(va - vb):
                for yv in sorted(vb - va):
                    deleted = (va | vb) - {xv, yv}
                    path = _bfs_path(adj, xv, yv, deleted)
                    if path is not None:
                        return PathWitness(query.atoms[ai], query.atoms[bi],
                                           xv, yv, tuple(path))
    return None


def _bfs_path(adj: dict[str, set[str]], start: str, goal: str,
              deleted: frozenset[str]) -> Optional[list[str]]:
    """A shortest ``start``-``goal`` path avoiding ``deleted``, which holds
    neither endpoint."""
    prev: dict[str, Optional[str]] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            path = [node]
            while prev[node] is not None:
                node = prev[node]  # type: ignore[assignment]
                path.append(node)
            return path[::-1]
        for nxt in sorted(adj[node]):
            if nxt in deleted or nxt in prev:
                continue
            prev[nxt] = node
            queue.append(nxt)
    return None


# ---------------------------------------------------------------------------
# polarity and positive connectivity
# ---------------------------------------------------------------------------


def relation_polarities(query: Query) -> dict[str, str]:
    """Per-relation polarity across the whole union:
    ``"positive"``, ``"negative"``, or ``"mixed"``."""
    polarity: dict[str, str] = {}
    for disjunct in disjuncts_of(query):
        for atom in disjunct.atoms:
            mark = "negative" if atom.negated else "positive"
            prior = polarity.get(atom.relation.name)
            if prior is None:
                polarity[atom.relation.name] = mark
            elif prior != mark:
                polarity[atom.relation.name] = "mixed"
    return polarity


def is_polarity_consistent(query: Query) -> bool:
    """True iff no relation occurs both positively and negatively."""
    return "mixed" not in relation_polarities(query).values()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class VerdictKind(enum.Enum):
    PTIME_HIERARCHICAL = "PTimeHierarchical"
    PTIME_EXO_REWRITE = "PTimeExoRewrite"
    HARD_NON_HIER_PATH = "HardNonHierPath"
    HARD_NON_HIERARCHICAL = "HardNonHierarchical"
    UNKNOWN_SELF_JOIN = "UnknownSelfJoin"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    witness: Optional[object] = None  # TripletWitness | PathWitness
    detail: str = ""

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind.value}
        if isinstance(self.witness, TripletWitness):
            payload["witness"] = {
                "type": "triplet",
                "atoms": [str(self.witness.atom_x), str(self.witness.atom_xy),
                          str(self.witness.atom_y)],
                "x": self.witness.x,
                "y": self.witness.y,
            }
        elif isinstance(self.witness, PathWitness):
            payload["witness"] = {
                "type": "path",
                "atoms": [str(self.witness.atom_x), str(self.witness.atom_y)],
                "x": self.witness.x,
                "y": self.witness.y,
                "path": list(self.witness.path),
            }
        else:
            payload["witness"] = None
        if self.detail:
            payload["detail"] = self.detail
        return payload


def classify(query: CQNeg) -> Verdict:
    """Place one conjunctive rule in the tractability landscape.

    Hardness verdicts are structural and hold regardless of self-joins;
    tractability verdicts additionally require self-join-freedom (the
    polynomial-time algorithms assume it), so a would-be tractable query
    with a repeated relation comes back ``UnknownSelfJoin``.
    """
    sjf = is_self_join_free(query)
    triplet = find_non_hierarchical_triplet(query)
    if triplet is None:
        if not sjf:
            return Verdict(VerdictKind.UNKNOWN_SELF_JOIN,
                           detail="hierarchical but not self-join-free")
        return Verdict(VerdictKind.PTIME_HIERARCHICAL)
    path = has_non_hierarchical_path(query)
    if path is None:
        if not sjf:
            return Verdict(VerdictKind.UNKNOWN_SELF_JOIN,
                           detail="no non-hierarchical path but not "
                                  "self-join-free")
        return Verdict(VerdictKind.PTIME_EXO_REWRITE)
    if not resolve_exogenous(query):
        return Verdict(VerdictKind.HARD_NON_HIERARCHICAL, witness=triplet)
    return Verdict(VerdictKind.HARD_NON_HIER_PATH, witness=path)


def classify_query(query: Query) -> tuple[Verdict, ...]:
    """Classify each disjunct of a (possibly union) query."""
    return tuple(classify(d) for d in disjuncts_of(query))

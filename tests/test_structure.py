"""Structural analysis: hierarchy, witnesses, paths, classification."""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (AUTHOR_Q, AUTHOR_X, GAIFMAN_Q, GAIFMAN_QPRIME,
                      GAIFMAN_QPRIME_X, GAIFMAN_Q_X, NOPATH_Q, PATH_QPRIME,
                      Q1, Q2, Q3, Q4, QRSTNR, SP_X, random_instance,
                      with_exogenous)
from shapfact.model import (Atom, Const, CQNeg, RelationSym, Var,
                            single_disjunct)
from shapfact.parsing import parse_query
from shapfact.structure import (PathWitness, TripletWitness, VerdictKind,
                                classify, classify_query,
                                exogenous_atom_components,
                                exogenous_variables,
                                find_non_hierarchical_triplet,
                                gaifman_adjacency, has_non_hierarchical_path,
                                is_hierarchical, is_polarity_consistent,
                                is_self_join_free, relation_polarities,
                                split_components)


def rule(text, exogenous=()):
    """The one rule of ``text``, with the relations in ``exogenous``
    declared exogenous."""
    return with_exogenous(single_disjunct(parse_query(text)), exogenous)


def test_hierarchy_of_the_running_queries():
    assert is_hierarchical(rule(Q1))
    assert not is_hierarchical(rule(Q2))
    assert not is_hierarchical(rule(Q3))
    assert not is_hierarchical(rule(Q4))


def test_self_joins_of_the_running_queries():
    assert is_self_join_free(rule(Q1))
    assert is_self_join_free(rule(Q2))
    assert not is_self_join_free(rule(Q3))
    assert not is_self_join_free(rule(Q4))


def test_witness_triplet_for_q2():
    w = find_non_hierarchical_triplet(rule(Q2))
    assert (str(w.atom_x), str(w.atom_xy), str(w.atom_y)) == (
        "Stud(x)", "Reg(x, y)", "not Course(y, CS)")
    assert (w.x, w.y) == ("x", "y")


def test_witness_triplet_for_q3():
    w = find_non_hierarchical_triplet(rule(Q3))
    assert (str(w.atom_x), str(w.atom_xy), str(w.atom_y)) == (
        "Adv(x, y)", "Adv(x, z)", "not TA(z)")


def test_no_triplet_for_hierarchical_query():
    assert find_non_hierarchical_triplet(rule(Q1)) is None


def test_nearly_identical_queries_differ_in_path():
    """Swapping one variable in the P-atom decides tractability."""
    assert has_non_hierarchical_path(rule(NOPATH_Q, SP_X)) is None
    w = has_non_hierarchical_path(rule(PATH_QPRIME, SP_X))
    assert w is not None
    assert {str(w.atom_x), str(w.atom_y)} == {"not R(x, w)", "T(y, w)"}


def test_path_found_through_deleted_graph():
    q = rule(GAIFMAN_Q, GAIFMAN_Q_X)
    w = has_non_hierarchical_path(q)
    assert w is not None
    # deterministic first witness of the sorted scan
    assert (str(w.atom_x), str(w.atom_y)) == ("not R(x)", "U(z, w)")
    assert w.path == ("x", "v", "y", "w")
    # replay the definition on whatever witness came back
    assert w.atom_x.relation.name not in GAIFMAN_Q_X
    assert w.atom_y.relation.name not in GAIFMAN_Q_X
    assert w.x in w.atom_x.variables and w.x not in w.atom_y.variables
    assert w.y in w.atom_y.variables and w.y not in w.atom_x.variables
    forbidden = (set(w.atom_x.variables) | set(w.atom_y.variables)) \
        - {w.x, w.y}
    assert w.path[0] == w.x and w.path[-1] == w.y
    assert not forbidden.intersection(w.path)
    for a, b in zip(w.path, w.path[1:]):
        assert any({a, b} <= set(atom.variables) for atom in q.atoms)


def test_no_path_in_the_eight_atom_query():
    assert has_non_hierarchical_path(rule(GAIFMAN_QPRIME,
                                          GAIFMAN_QPRIME_X)) is None


def test_exogenous_atom_components_of_the_eight_atom_query():
    comps = exogenous_atom_components(rule(GAIFMAN_QPRIME,
                                           GAIFMAN_QPRIME_X))
    rendered = {frozenset(str(a) for a in comp) for comp in comps}
    assert rendered == {
        frozenset({"not V(t)"}),
        frozenset({"R(x, y)", "not S(x, z)", "O(z)"}),
        frozenset({"P(u, y, w)"}),
    }


def test_atoms_sharing_only_non_exogenous_variable_stay_apart():
    # y occurs in the non-exogenous atom T(y), so it cannot glue the two
    # exogenous atoms together
    q = rule("q() :- T(y), S(x, y), P(y, z), not R(x, z).", {"S", "P"})
    comps = exogenous_atom_components(q)
    assert sorted(len(c) for c in comps) == [1, 1]


def test_classification_of_named_queries():
    assert classify(rule(Q1)).kind is VerdictKind.PTIME_HIERARCHICAL
    assert classify(rule(Q2)).kind is VerdictKind.HARD_NON_HIERARCHICAL
    assert classify(rule(Q2, {"Stud", "Course"})).kind \
        is VerdictKind.PTIME_EXO_REWRITE
    assert classify(rule(AUTHOR_Q, AUTHOR_X)).kind \
        is VerdictKind.PTIME_EXO_REWRITE
    assert classify(rule(NOPATH_Q, SP_X)).kind \
        is VerdictKind.PTIME_EXO_REWRITE
    assert classify(rule(PATH_QPRIME, SP_X)).kind \
        is VerdictKind.HARD_NON_HIER_PATH
    assert classify(rule(GAIFMAN_Q, GAIFMAN_Q_X)).kind \
        is VerdictKind.HARD_NON_HIER_PATH
    assert classify(rule(GAIFMAN_QPRIME, GAIFMAN_QPRIME_X)).kind \
        is VerdictKind.PTIME_EXO_REWRITE


def test_self_joins_blank_the_positive_verdicts():
    assert classify(rule(Q3)).kind is VerdictKind.HARD_NON_HIERARCHICAL
    hier_selfjoin = rule("q() :- R(x), R(x).")  # duplicate atom collapses
    assert hier_selfjoin is not None
    sj = rule("q() :- Adv(x, y), Adv(y, x).")
    assert classify(sj).kind is VerdictKind.UNKNOWN_SELF_JOIN


def test_classify_query_handles_unions():
    q = parse_query("q() :- R(x).\nq() :- S(x, y), not T(y).")
    kinds = [v.kind for v in classify_query(q)]
    assert kinds == [VerdictKind.PTIME_HIERARCHICAL,
                     VerdictKind.PTIME_HIERARCHICAL]


def test_verdict_json_shapes():
    v = classify(rule(Q2))
    payload = v.to_json()
    assert payload["kind"] == "HardNonHierarchical"
    assert payload["witness"]["type"] == "triplet"
    v = classify(rule(PATH_QPRIME, SP_X))
    payload = v.to_json()
    assert payload["witness"]["type"] == "path"
    assert payload["witness"]["path"][0] == payload["witness"]["x"]


def test_polarity_analysis():
    q = rule(QRSTNR)
    assert relation_polarities(q)["R"] == "mixed"
    assert relation_polarities(q)["T"] == "positive"
    assert not is_polarity_consistent(q)
    assert is_polarity_consistent(rule(Q1))


def test_path_with_no_exogenous_relations_iff_non_hierarchical():
    """With X empty the path criterion degenerates to plain hierarchy."""
    rng = random.Random(20240811)
    checked = 0
    for _ in range(300):
        _, q = random_instance(rng, max_endo=5)
        path = has_non_hierarchical_path(q)
        assert (path is not None) == (not is_hierarchical(q))
        checked += 1
    assert checked == 300


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_path_hierarchy_agreement_property(seed):
    _, q = random_instance(random.Random(seed), max_endo=3)
    assert (has_non_hierarchical_path(q) is not None) \
        == (not is_hierarchical(q))


# ---------------------------------------------------------------------------
# the earlier index-loop scans, kept as references for the plain ones
# ---------------------------------------------------------------------------


def _ref_split_components(variables):
    parent = list(range(len(variables)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var = {}
    for i, names in enumerate(variables):
        for v in names:
            if v in by_var:
                rep = find(by_var[v])
                parent[find(i)] = rep
            else:
                by_var[v] = i
    groups = {}
    for i in range(len(variables)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _ref_exogenous_atom_components(query):
    exo_vars = exogenous_variables(query)
    members = [a for a in query.atoms if a.relation.exogenous_only]
    groups = _ref_split_components([[v for v in a.variables if v in exo_vars]
                                    for a in members])
    return tuple(tuple(members[i] for i in group) for group in groups)


def _ref_gaifman_adjacency(query):
    adj = {v: set() for atom in query.atoms for v in atom.variables}
    for atom in query.atoms:
        vs = atom.variables
        for a in vs:
            for b in vs:
                if a != b:
                    adj[a].add(b)
    return adj


def _ref_triplet(query):
    vars_of = [frozenset(a.variables) for a in query.atoms]
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
                        xs[0], ys[0])
    return None


def _ref_bfs_path(adj, start, goal, deleted):
    prev = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            path = [node]
            while prev[node] is not None:
                node = prev[node]
                path.append(node)
            return path[::-1]
        for nxt in sorted(adj[node]):
            if nxt in deleted or nxt in prev:
                continue
            prev[nxt] = node
            queue.append(nxt)
    return None


def _ref_path(query):
    adj = _ref_gaifman_adjacency(query)
    candidates = [i for i, a in enumerate(query.atoms)
                  if not a.relation.exogenous_only]
    vars_of = [frozenset(a.variables) for a in query.atoms]
    for ai in candidates:
        for bi in candidates:
            if bi <= ai:
                continue
            va, vb = vars_of[ai], vars_of[bi]
            for xv in sorted(va - vb):
                for yv in sorted(vb - va):
                    deleted = (va | vb) - {xv, yv}
                    path = _ref_bfs_path(adj, xv, yv, deleted)
                    if path is not None:
                        return PathWitness(query.atoms[ai], query.atoms[bi],
                                           xv, yv, tuple(path))
    return None


def _ref_verdict_json(verdict):
    payload = {"kind": verdict.kind.value}
    w = verdict.witness
    if isinstance(w, TripletWitness):
        payload["witness"] = {
            "type": "triplet",
            "atoms": [str(w.atom_x), str(w.atom_xy), str(w.atom_y)],
            "x": w.x, "y": w.y}
    elif isinstance(w, PathWitness):
        payload["witness"] = {
            "type": "path", "atoms": [str(w.atom_x), str(w.atom_y)],
            "x": w.x, "y": w.y, "path": list(w.path)}
    else:
        payload["witness"] = None
    if verdict.detail:
        payload["detail"] = verdict.detail
    return payload


def _random_rule(rng):
    """1-7 atoms over 8 variables and a few constants; a relation is
    exogenous with probability 0.4, an atom negated with probability 0.3,
    and an atom repeats an earlier relation now and then."""
    atoms, relations = [], []
    for i in range(rng.randint(1, 7)):
        if relations and rng.random() < 0.1:
            rel = rng.choice(relations)
        else:
            rel = RelationSym(f"R{i}", rng.randint(0, 3), rng.random() < 0.4)
            relations.append(rel)
        terms = tuple(Const(rng.choice("ab")) if rng.random() < 0.15
                      else Var(rng.choice("stuvwxyz"))
                      for _ in range(rel.arity))
        atoms.append(Atom(rel, terms, rng.random() < 0.3))
    return CQNeg(tuple(atoms))


def test_the_plain_scans_match_the_index_loop_references():
    rng = random.Random(33)
    triplets = paths = routed = 0
    kinds = set()
    for _ in range(3000):
        q = _random_rule(rng)
        triplet = find_non_hierarchical_triplet(q)
        path = has_non_hierarchical_path(q)
        assert triplet == _ref_triplet(q)
        assert path == _ref_path(q)
        assert gaifman_adjacency(q) == _ref_gaifman_adjacency(q)
        verdict = classify(q)
        assert verdict.to_json() == _ref_verdict_json(verdict)
        kinds.add(verdict.kind)
        variables = [a.variables for a in q.atoms]
        assert split_components(variables) == _ref_split_components(variables)
        assert exogenous_atom_components(q) \
            == _ref_exogenous_atom_components(q)
        triplets += triplet is not None
        paths += path is not None
        routed += path is not None and len(path.path) > 2
    # the comparisons reached every verdict and both kinds of witness,
    # direct paths and paths through an intermediate variable alike
    # (seed 33 draws 590 triplets, 323 paths and 49 routed paths)
    assert kinds == set(VerdictKind)
    assert triplets >= 500 and paths >= 250 and routed >= 30, \
        (triplets, paths, routed)

"""Structural analysis: hierarchy, witnesses, paths, classification."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (AUTHOR_Q, AUTHOR_X, GAIFMAN_Q, GAIFMAN_QPRIME,
                      GAIFMAN_QPRIME_X, GAIFMAN_Q_X, NOPATH_Q, PATH_QPRIME,
                      Q1, Q2, Q3, Q4, QRSTNR, SP_X, random_instance,
                      with_exogenous)
from shapfact.model import single_disjunct
from shapfact.parsing import parse_query
from shapfact.structure import (VerdictKind, classify, classify_query,
                                exogenous_atom_components,
                                find_non_hierarchical_triplet,
                                has_non_hierarchical_path, is_hierarchical,
                                is_polarity_consistent, is_self_join_free,
                                relation_polarities)


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

"""Exogenous-relation rewrite: compilation steps, preservation, refusals."""

import random

import pytest

from conftest import (GAIFMAN_QPRIME, NOPATH_Q, PATH_QPRIME, Q2,
                      random_exo_rewrite_instance, staff_fact,
                      with_exogenous)
from shapfact import rewriting
from shapfact.errors import (BlowupExceededError, HasNonHierPathError,
                             ProvenanceError, ReservedNameError,
                             SelfJoinError)
from shapfact.exact import shapley_exact_all
from shapfact.model import (RESERVED_PREFIX, Database, Fact, Provenance,
                            RelationSym, Schema, single_disjunct)
from shapfact.naive import brute_shapley_all
from shapfact.parsing import parse_facts, parse_query, parse_schema
from shapfact.prob import brute_prob, prob_eval
from shapfact.rewriting import apply_step, rewrite, shapley_exo
from shapfact.structure import (VerdictKind, classify_query,
                                exogenous_atom_components, is_hierarchical,
                                is_self_join_free)


def test_course_query_rewrite_shape(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    new_db, new_rule, trace = rewrite(staff_db_exo, q)
    # one step per exogenous component: {Stud(x)} and {not Course(y, CS)}
    assert [tuple(map(str, s.component)) for s in trace.steps] \
        == [("Stud(x)",), ("not Course(y, CS)",)]
    assert is_hierarchical(new_rule) and is_self_join_free(new_rule)
    # original endogenous facts survive untouched
    assert new_db.endogenous == staff_db_exo.endogenous
    # two distinct namespaced relations were minted, and both survive into
    # the final schema in place of Stud and Course
    minted = [s.relation.name for s in trace.steps]
    assert len(set(minted)) == 2
    assert all(n.startswith(RESERVED_PREFIX) for n in minted)
    fresh = [r.name for r in new_db.schema.relations
             if r.name.startswith(RESERVED_PREFIX)]
    assert sorted(fresh) == sorted(minted)
    assert not {"Stud", "Course"} & {r.name for r in new_db.schema.relations}


def test_course_query_values_preserved(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    expected = brute_shapley_all(staff_db_exo, q)
    new_db, new_rule, _ = rewrite(staff_db_exo, q)
    got = shapley_exact_all(new_db, new_rule)
    assert {f.key: v for f, v in got.items()} \
        == {f.key: v for f, v in expected.items()}


def test_shapley_exo_entry_point(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    ft1 = staff_fact(staff_db_exo, "TA", "Adam")
    expected = brute_shapley_all(staff_db_exo, q)[ft1]
    assert shapley_exo(staff_db_exo, q, ft1) == expected


def test_each_step_preserves_values(staff_db_exo):
    """Replay the recorded steps one by one; after every step the full
    value vector (by the oracle) must be unchanged."""
    q = single_disjunct(parse_query(Q2, staff_db_exo.schema))
    baseline = {f.key: v
                for f, v in brute_shapley_all(staff_db_exo, q).items()}
    _, _, trace = rewrite(staff_db_exo, q)
    db, rule = staff_db_exo, q
    for step in trace.steps:
        db, rule, _ = apply_step(db, rule, step, trace.domain)
        now = {f.key: v for f, v in brute_shapley_all(db, rule).items()}
        assert now == baseline, f"value drift after {step.component}"


def test_replay_reproduces_rewrite_exactly(staff_db_exo):
    q = single_disjunct(parse_query(Q2, staff_db_exo.schema))
    final_db, final_rule, trace = rewrite(staff_db_exo, q)
    db, rule = staff_db_exo, q
    for step in trace.steps:
        db, rule, produced = apply_step(db, rule, step, trace.domain)
        assert produced == step.size_after
    assert db.facts == final_db.facts
    assert rule == final_rule


def test_shared_exogenous_variable_gives_one_step():
    # S and P share z, which occurs in no other atom, so one step
    # materialises them together
    schema = parse_schema("relation R/2\nrelation S/2 exogenous\n"
                          "relation P/2 exogenous\nrelation T/2")
    db = parse_facts(
        """
        endo R(a, b)
        endo T(a, b)
        endo T(b, b)
        exo S(a, a)
        exo S(a, b)
        exo P(a, b)
        """,
        schema,
    )
    q = parse_query(NOPATH_Q, schema)
    new_db, new_rule, trace = rewrite(db, q)
    assert [{a.relation.name for a in s.component}
            for s in trace.steps] == [{"S", "P"}]
    got = {f.key: v for f, v in shapley_exact_all(new_db, new_rule).items()}
    expected = {f.key: v for f, v in brute_shapley_all(db, q).items()}
    assert got == expected


def test_eight_atom_query_end_to_end():
    schema = parse_schema(
        "relation U/2\nrelation T/1\nrelation Q/2\n"
        "relation V/1 exogenous\nrelation R/2 exogenous\n"
        "relation S/2 exogenous\nrelation O/1 exogenous\n"
        "relation P/3 exogenous"
    )
    db = parse_facts(
        """
        endo U(t1, r1)
        endo T(y1)
        endo Q(y1, w1)
        endo Q(y2, w1)
        exo V(t2)
        exo R(x1, y1)
        exo R(x1, y2)
        exo S(x1, z2)
        exo O(z1)
        exo P(u1, y1, w1)
        exo P(u1, y2, w1)
        """,
        schema,
    )
    q = parse_query(GAIFMAN_QPRIME, schema)
    new_db, new_rule, _ = rewrite(db, q)
    got = {f.key: v for f, v in shapley_exact_all(new_db, new_rule).items()}
    expected = {f.key: v for f, v in brute_shapley_all(db, q).items()}
    assert got == expected


def test_variable_free_exogenous_atom_becomes_guard():
    # V's only variable is exogenous-only nowhere: y never touches a
    # non-exogenous atom, so V projects down to a zero-column guard
    schema = parse_schema("relation A/1\nrelation V/1 exogenous")
    q = parse_query("q() :- A(x), V(y).", schema)
    db_with = parse_facts("endo A(a)\nexo V(b)", schema)
    db_without = parse_facts("endo A(a)", schema)
    for db in (db_with, db_without):
        got = {f.key: v for f, v in brute_shapley_all(db, q).items()}
        new_db, new_rule, _ = rewrite(db, q)
        exact = {f.key: v
                 for f, v in shapley_exact_all(new_db, new_rule).items()}
        assert exact == got


def test_refuses_instances_with_a_path():
    schema = parse_schema("relation R/2\nrelation S/2 exogenous\n"
                          "relation P/2 exogenous\nrelation T/2")
    db = parse_facts("endo R(a, b)\nendo T(a, b)\nexo S(a, a)", schema)
    q = parse_query(PATH_QPRIME, schema)
    with pytest.raises(HasNonHierPathError) as err:
        rewrite(db, q)
    w = err.value.witness
    assert w is not None
    assert {w.atom_x.relation.name, w.atom_y.relation.name} == {"R", "T"}


def test_refuses_self_joins():
    schema = parse_schema("relation R/2\nrelation S/1 exogenous")
    db = parse_facts("endo R(a, b)", schema)
    q = parse_query("q() :- R(x, y), R(y, x), S(x).", schema)
    with pytest.raises(SelfJoinError):
        rewrite(db, q)


def test_rejects_endogenous_facts_in_exogenous_relations():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(a)\nendo S(a)", schema)
    # the rule says S is exogenous, the database holds S(a) endogenous
    q = with_exogenous(
        single_disjunct(parse_query("q() :- R(x), not S(x).", schema)), {"S"})
    with pytest.raises(ProvenanceError):
        rewrite(db, q)


def test_refuses_a_schema_that_declares_a_reserved_name():
    # the first fresh relation would be __exo_1, which the schema holds
    r, s, taken = (RelationSym("R", 1), RelationSym("S", 1, True),
                   RelationSym(f"{RESERVED_PREFIX}1", 1))
    db = Database(Schema([r, s, taken]),
                  [Fact(r, ("a",)), Fact(s, ("a",), Provenance.EXOGENOUS)])
    q = parse_query("q() :- R(x), S(x).", db.schema)
    with pytest.raises(ReservedNameError, match="reserved prefix"):
        rewrite(db, q)


def test_blowup_cap_refusal(monkeypatch):
    # S(x) shares x with T(x, y), so its step pads with y: 10 S facts
    # times a 20-constant domain project to 200 tuples, and a cap of 100
    # refuses before any of them is built
    schema = parse_schema("relation R/1\nrelation S/1 exogenous\n"
                          "relation T/2")
    lines = ["exo S(s%d)" % i for i in range(10)]
    lines += ["endo R(r%d)" % i for i in range(10)]
    db = parse_facts("\n".join(lines), schema)
    q = parse_query("q() :- R(y), S(x), not T(x, y).", schema)
    monkeypatch.setattr(rewriting, "BLOWUP_CAP", 100)
    with pytest.raises(BlowupExceededError, match="200 tuples"):
        rewrite(db, q)
    monkeypatch.setattr(rewriting, "BLOWUP_CAP", 200)
    _, _, trace = rewrite(db, q)
    assert [s.size_after for s in trace.steps] == [200]


def test_matches_oracle_on_random_instances():
    rng = random.Random(555)
    for _ in range(30):
        db, q = random_exo_rewrite_instance(rng, max_endo=7)
        new_db, new_rule, trace = rewrite(db, q)
        assert len(trace.steps) == len(
            exogenous_atom_components(single_disjunct(q)))
        got = {f.key: v
               for f, v in shapley_exact_all(new_db, new_rule).items()}
        expected = {f.key: v for f, v in brute_shapley_all(db, q).items()}
        assert got == expected


def test_trace_describe_is_readable(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    _, _, trace = rewrite(staff_db_exo, q)
    text = trace.describe()
    assert "exogenous relations: Course, Stud" in text
    assert text.count("step") == len(trace.steps)
    assert text.count("[materialise]") == len(trace.steps)


def test_trace_describe_text_is_pinned(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    _, _, trace = rewrite(staff_db_exo, q)
    assert trace.describe() == (
        "domain size 12; exogenous relations: Course, Stud\n"
        "step 1 [materialise] Stud(x) -> __exo_1(x) (4 tuples in, 4 out)\n"
        "step 2 [materialise] not Course(y, CS) -> __exo_2(y, x) "
        "(4 tuples in, 120 out)")


PRICED_STAFF = """
prob 1 Stud(Adam)
prob 1 Stud(Ben)
prob 1 Course(AI, CS)
prob 1 Course(OS, Sem)
prob 1/2 TA(Adam)
prob 3/4 TA(Ben)
prob 1/2 Reg(Adam, OS)
prob 1/4 Reg(Adam, AI)
prob 7/8 Reg(Ben, OS)
"""


def test_exogenous_relations_come_from_the_schema(staff_schema,
                                                  staff_schema_exo):
    # the same Q2 over the same fact text: only the schema's exogenous
    # markers on Stud and Course decide whether the rewrite applies
    db = parse_facts(PRICED_STAFF, staff_schema)
    q = parse_query(Q2, staff_schema)
    assert classify_query(q)[0].kind is VerdictKind.HARD_NON_HIERARCHICAL
    with pytest.raises(HasNonHierPathError):
        rewrite(db, q)
    with pytest.raises(HasNonHierPathError):
        prob_eval(db, q)

    db = parse_facts(PRICED_STAFF, staff_schema_exo)
    q = parse_query(Q2, staff_schema_exo)
    assert classify_query(q)[0].kind is VerdictKind.PTIME_EXO_REWRITE
    _, _, trace = rewrite(db, q)
    assert len(trace.steps) \
        == len(exogenous_atom_components(single_disjunct(q))) == 2
    assert prob_eval(db, q) == brute_prob(db, q)
    assert 0 < prob_eval(db, q) < 1

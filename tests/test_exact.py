"""Counting-engine tests: the polynomial algorithm against the oracle."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from conftest import (Q2, RULE_SHAPES, STAFF_Q1_SAT_COUNTS, STAFF_Q1_VALUES,
                      random_hierarchical_instance, random_instance,
                      random_shaped_instance, reverse_constants, staff_fact)
from shapfact import decompose, exact
from shapfact.errors import (FactNotEndogenousError, NotHierarchicalError,
                             SelfJoinError)
from shapfact.exact import (count_satisfying_subsets, shapley_exact,
                            shapley_exact_all)
from shapfact.model import Database, Fact, Provenance, Var
from shapfact.naive import (brute_count_satisfying, brute_shapley,
                            brute_shapley_all, eval_boolean)
from shapfact.parsing import parse_facts, parse_query, parse_schema
from shapfact.prob import brute_prob, prob_eval_hierarchical
from shapfact.rewriting import rewrite
from shapfact.structure import is_hierarchical


def test_staff_q1_count_vector(staff_db, q1):
    assert count_satisfying_subsets(staff_db, q1) == STAFF_Q1_SAT_COUNTS


def test_staff_q1_values(staff_db, q1):
    values = shapley_exact_all(staff_db, q1)
    got = {(f.relation.name, f.args): v for f, v in values.items()}
    assert got == STAFF_Q1_VALUES
    assert sum(values.values()) == 1  # the database satisfies q1, Dx does not


def test_single_fact_matches_all(staff_db, q1):
    fr3 = staff_fact(staff_db, "Reg", "Ben", "OS")
    assert shapley_exact(staff_db, q1, fr3) == Fraction(27, 140)


def test_refuses_non_hierarchical(staff_db, q2):
    with pytest.raises(NotHierarchicalError):
        count_satisfying_subsets(staff_db, q2)


def test_engines_refuse_exactly_the_non_hierarchical_rules():
    # the recursion has no hierarchy pre-check: planning a rule that is
    # not hierarchical meets a component with no root variable
    rng = random.Random(27182)
    kinds = Counter()
    for _ in range(400):
        db, query = random_instance(rng, max_endo=6, allow_self_joins=False)
        hierarchical = is_hierarchical(query)
        for engine in (count_satisfying_subsets, prob_eval_hierarchical):
            if hierarchical:
                engine(db, query)
            else:
                with pytest.raises(NotHierarchicalError):
                    engine(db, query)
        kinds[hierarchical] += 1
    # both kinds of rule are drawn often enough to show something
    assert min(kinds.values()) >= 50


def test_refuses_self_joins():
    schema = parse_schema("relation R/2")
    db = parse_facts("endo R(a, b)", schema)
    q = parse_query("q() :- R(x, y), R(y, x).", schema)
    with pytest.raises(SelfJoinError):
        count_satisfying_subsets(db, q)


def test_refuses_exogenous_target(staff_db, q1):
    with pytest.raises(FactNotEndogenousError):
        shapley_exact(staff_db, q1, staff_fact(staff_db, "Stud", "Adam"))


def test_empty_database_counts():
    schema = parse_schema("relation R/1")
    db = parse_facts("", schema)
    q = parse_query("q() :- R(x).", schema)
    assert count_satisfying_subsets(db, q) == [0]


def test_ground_query_counts():
    schema = parse_schema("relation R/1")
    q = parse_query("q() :- R(A).", schema)
    db = parse_facts("endo R(a)\nendo R(b)", schema)
    assert count_satisfying_subsets(db, q) == [0, 0, 0]
    db2 = parse_facts("endo R(A)\nendo R(b)", schema)
    # subsets containing R(A): 1 of size 1, 1 of size 2
    assert count_satisfying_subsets(db2, q) == [0, 1, 1]


def test_negated_ground_query_counts():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(A)\nendo S(A)", schema)
    q = parse_query("q() :- S(x), not R(A).", schema)
    # q holds iff S(A) in and R(A) out
    assert count_satisfying_subsets(db, q) == [0, 1, 0]


def test_matches_oracle_on_random_hierarchical_instances():
    rng = random.Random(123123)
    nontrivial = 0
    for _ in range(60):
        db, query = random_hierarchical_instance(rng, max_endo=8)
        assert count_satisfying_subsets(db, query) \
            == brute_count_satisfying(db, query)
        expected = brute_shapley_all(db, query)
        got = shapley_exact_all(db, query)
        assert got == expected
        nontrivial += any(expected.values())
    # most draws value every fact at 0; 13 of these 60 do not
    assert nontrivial >= 11


def test_staff_engine_agrees_with_oracle(staff_db, q1):
    # double entry: the engine and the enumeration oracle agree
    assert count_satisfying_subsets(staff_db, q1) \
        == brute_count_satisfying(staff_db, q1) == STAFF_Q1_SAT_COUNTS
    fr4 = staff_fact(staff_db, "Reg", "Caroline", "DB")
    assert shapley_exact(staff_db, q1, fr4) \
        == brute_shapley(staff_db, q1, fr4) == Fraction(13, 42)


def test_disconnected_components_multiply():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(a)\nendo S(b)", schema)
    q = parse_query("q() :- R(x), S(y).", schema)
    # both facts needed: only the full subset qualifies
    assert count_satisfying_subsets(db, q) == [0, 0, 1]


def _large_q1_database(rng, students, courses, schema):
    """Q1 facts over seeded students (30% TAs, 1-3 registrations each),
    plus two non-TA students Solo1 and Solo2 registered only in their own
    courses Own1 and Own2."""
    names = [f"S{i}" for i in range(students)]
    lines = [f"exo Stud({s})" for s in names]
    lines += [f"endo TA({s})" for s in rng.sample(names, students * 3 // 10)]
    for s in names:
        for c in rng.sample(courses, rng.randint(1, 3)):
            lines.append(f"endo Reg({s}, {c})")
    for i in (1, 2):
        lines += [f"exo Stud(Solo{i})", f"endo Reg(Solo{i}, Own{i})"]
    rng.shuffle(lines)
    return parse_facts("\n".join(lines), schema)


def test_axioms_beyond_the_oracle(staff_schema, q1):
    # about 200 endogenous facts: far past subset enumeration, so the
    # engine is held to the Shapley axioms instead
    rng = random.Random(777)
    db = _large_q1_database(rng, 80, [f"C{i}" for i in range(25)],
                            staff_schema)
    assert 180 <= db.n_endogenous <= 230
    values = shapley_exact_all(db, q1)
    assert list(values) == list(db.endogenous)
    # efficiency: the values share out q(D) - q(exogenous facts only)
    expected = (int(eval_boolean(db.facts, q1))
                - int(eval_boolean(db.exogenous, q1)))
    assert sum(values.values(), Fraction(0)) == expected
    # symmetry: swapping (Solo1, Own1) with (Solo2, Own2) maps the
    # database onto itself
    solo1 = staff_fact(db, "Reg", "Solo1", "Own1")
    solo2 = staff_fact(db, "Reg", "Solo2", "Own2")
    assert values[solo1] == values[solo2] > 0
    # the single-fact entry point reads the same pass
    for fact in rng.sample(list(db.endogenous), 5):
        assert shapley_exact(db, q1, fact) == values[fact]


def test_engines_match_oracles_across_rule_shapes():
    # 100 seeded draws per shape: counts, Shapley values and lifted
    # probability against their enumeration oracles
    rng = random.Random(314159)
    draws = nontrivial = 0
    for shape in RULE_SHAPES:
        for _ in range(100):
            db, query = random_shaped_instance(rng, shape)
            assert count_satisfying_subsets(db, query) \
                == brute_count_satisfying(db, query)
            values = shapley_exact_all(db, query)
            assert values == brute_shapley_all(db, query)
            assert prob_eval_hierarchical(db, query) == brute_prob(db, query)
            draws += 1
            nontrivial += any(values.values())
    # an oracle comparison of all-zero values shows little
    assert nontrivial >= draws // 5


def test_single_fact_path_matches_all_across_rule_shapes():
    # each fact valued along its own path, against the pass over every
    # fact and the enumeration oracle
    rng = random.Random(161803)
    nontrivial = 0
    for shape in RULE_SHAPES:
        for _ in range(40):
            db, query = random_shaped_instance(rng, shape)
            values = shapley_exact_all(db, query)
            assert values == brute_shapley_all(db, query)
            for fact in db.endogenous:
                assert shapley_exact(db, query, fact) == values[fact]
            nontrivial += any(values.values())
    # 138 of these 280 draws value some fact above or below 0
    assert nontrivial >= 125


def _unscaled_full_pass(db, query):
    """Every endogenous fact's value by a reverse pass over all leaves
    from the unscaled weights ``k! (n-1-k)!``, each its two factorials,
    and one Fraction per fact: the reference for the engine's pass, which
    builds each weight from the one before, divides the weights by their
    gcd, walks only its targets' paths and shares a Fraction between
    equal numerators."""
    vector, tree = decompose.weighted_count(
        query, db.facts, exact._binomials(), exact._ground(db.endogenous))
    n = len(vector) - 1
    numerators = {}

    def correlate(a, b):
        return [sum(a[s + t] * b[s] for s in range(len(b)))
                for t in range(len(a) - len(b) + 1)]

    def reverse(node, covector):
        if isinstance(node, tuple):
            fact, sign = node
            numerators[fact] = sign * covector[0]
            return
        for i in range(len(node) - 1, -1, -1):
            prefix, factor, child = node[i]
            if child is not None:
                reverse(child, correlate(covector, prefix))
            if i:
                covector = correlate(covector, factor)

    if tree is not None:
        reverse(tree, [factorial(k) * factorial(n - 1 - k)
                       for k in range(n)])
    return {fact: Fraction(numerators.get(fact, 0), factorial(n))
            for fact in db.endogenous}


def _all_endogenous(db):
    return Database(db.schema, [Fact(f.relation, f.args) for f in db.facts])


def test_scaled_pass_matches_the_unscaled_full_pass(staff_schema, q1):
    # several hundred facts, where the weights share most of their bits
    rng = random.Random(4242)
    courses = [f"C{i}" for i in range(30)]
    for students, every_relation in ((100, False), (110, True), (60, True)):
        db = _large_q1_database(rng, students, courses, staff_schema)
        if every_relation:
            db = _all_endogenous(db)
        assert db.n_endogenous >= 200
        expected = _unscaled_full_pass(db, q1)
        values = shapley_exact_all(db, q1)
        assert values == expected
        assert sum(v != 0 for v in values.values()) >= 150
        for fact in rng.sample(list(db.endogenous), 5):
            assert shapley_exact(db, q1, fact) == expected[fact]
    # and every rule shape at up to 10 endogenous facts
    rng = random.Random(26001)
    nontrivial = 0
    for shape in sorted(RULE_SHAPES):
        for _ in range(30):
            db, query = random_shaped_instance(rng, shape, max_endo=10)
            values = shapley_exact_all(db, query)
            assert values == _unscaled_full_pass(db, query)
            nontrivial += any(values.values())
    # 104 of these 210 draws value some fact above or below 0
    assert nontrivial >= 95


def _path_chains(tree, fact):
    """The number of convolution chains on the path to ``fact``'s leaf in
    a tree that holds no other leaf; each must have exactly one entry."""
    chains = 0
    while isinstance(tree, list):
        assert len(tree) == 1
        chains += 1
        tree = tree[0][2]
    assert tree is None or tree[0] == fact
    return chains


def test_one_target_correlates_once_per_chain_on_its_path(staff_schema, q1,
                                                          monkeypatch):
    calls = Counter()
    correlate = exact._correlate

    def spy(a, b):
        calls["correlate"] += 1
        return correlate(a, b)

    monkeypatch.setattr(exact, "_correlate", spy)
    rng = random.Random(5150)
    instances = [random_shaped_instance(rng, shape)
                 for shape in RULE_SHAPES for _ in range(10)]
    instances.append((_large_q1_database(rng, 60, ["C1", "C2", "C3"],
                                         staff_schema), q1))
    on_a_path = 0
    for db, query in instances:
        for fact in db.endogenous:
            _vector, tree = decompose.weighted_count(
                query, db.facts, exact._binomials(), exact._ground({fact}))
            chains = _path_chains(tree, fact)
            calls.clear()
            shapley_exact(db, query, fact)
            assert calls["correlate"] <= chains
            on_a_path += chains > 1
    # 219 of the 447 targets sit below more than one chain
    assert on_a_path >= 200
    # the pass over every fact of the large instance correlates far more
    db, query = instances[-1]
    calls.clear()
    shapley_exact_all(db, query)
    assert calls["correlate"] > 2 * db.n_endogenous


def test_order_reversing_renaming_keeps_every_value():
    rng = random.Random(8642)
    for shape in RULE_SHAPES:
        for _ in range(20):
            db, query = random_shaped_instance(rng, shape)
            new_db, new_query, names = reverse_constants(db, query)
            moved = {Fact(f.relation, tuple(names[a] for a in f.args)): v
                     for f, v in shapley_exact_all(db, query).items()}
            assert shapley_exact_all(new_db, new_query) == moved
            assert prob_eval_hierarchical(new_db, new_query) \
                == prob_eval_hierarchical(db, query)


def _unmatchable(db, query):
    """Endogenous facts that no atom of the rule matches: one of the
    unused relation N, and one with fresh, pairwise distinct values for
    each atom holding a constant or a repeated variable."""
    facts = [Fact(db.schema["N"], ("fresh",), Provenance.ENDOGENOUS,
                  Fraction(1, 2))]
    for atom in query.atoms:
        variables = [t for t in atom.terms if isinstance(t, Var)]
        if len(variables) < len(atom.terms) \
                or len(set(variables)) < len(variables):
            args = tuple(f"fresh{i}" for i in range(len(atom.terms)))
            facts.append(Fact(atom.relation, args, Provenance.ENDOGENOUS,
                              Fraction(1, 2)))
    return facts


def test_unmatchable_facts_are_null_players():
    rng = random.Random(9753)
    kinds = Counter()
    for shape in RULE_SHAPES:
        for _ in range(20):
            db, query = random_shaped_instance(rng, shape)
            extra = _unmatchable(db, query)
            kinds.update(f.relation.name for f in extra)
            grown = Database(db.schema, db.facts + tuple(extra))
            values = shapley_exact_all(db, query)
            assert shapley_exact_all(grown, query) \
                == {**values, **dict.fromkeys(extra, 0)}
            assert prob_eval_hierarchical(grown, query) \
                == prob_eval_hierarchical(db, query)
    # the unused relation; constant mismatches (R of "constant", T of
    # "nested_with_constant"); a repeated-variable mismatch (R(x, x))
    assert kinds["N"] == 140 and kinds["R"] == 40 and kinds["T"] == 20


def test_each_fact_is_unified_once_per_count(staff_db_exo, monkeypatch):
    # ten more students registered for two EE courses, so that more than
    # 20 facts are left after the rewrite filters out the CS registrations
    more = parse_facts("\n".join(
        f"exo Stud(S{i})\nendo Reg(S{i}, OS)\nendo Reg(S{i}, IC)\n"
        f"endo Reg(S{i}, AI)" + (f"\nendo TA(S{i})" if i % 2 else "")
        for i in range(10)), staff_db_exo.schema)
    db, rule, _trace = rewrite(
        Database(staff_db_exo.schema, staff_db_exo.facts + more.facts),
        parse_query(Q2, staff_db_exo.schema))
    checked = Counter()
    match = decompose._match

    def spy(atom, args, binding):
        checked[atom.relation.name, args] += 1
        return match(atom, args, binding)

    monkeypatch.setattr(decompose, "_match", spy)
    relations = {atom.relation.name for atom in rule.atoms}
    expected = Counter(f.key for f in db.facts
                       if f.relation.name in relations)
    assert len(expected) > 20
    shapley_exact_all(db, rule)
    assert checked == expected
    checked.clear()
    prob_eval_hierarchical(db, rule)
    assert checked == expected

"""Exogenous-relation rewrite: compilation steps, preservation, refusals."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (GAIFMAN_QPRIME, NOPATH_Q, PATH_QPRIME, Q2, Q2_SHAPES,
                      RULE_SHAPES, random_exo_rewrite_instance,
                      random_q2_instance, random_shaped_instance,
                      reverse_constants, staff_fact, with_exogenous)
from shapfact import decompose, rewriting
from shapfact.errors import (ArityError, BadProbabilityError,
                             BlowupExceededError, HasNonHierPathError,
                             ProvenanceError, ReservedNameError,
                             SchemaSyntaxError, SelfJoinError)
from shapfact.exact import shapley_exact, shapley_exact_all
from shapfact.model import (RESERVED_PREFIX, CQNeg, Database, Fact,
                            Provenance, RelationSym, Schema, active_domain,
                            fact_violations, single_disjunct)
from shapfact.naive import (_image, _index, _match, brute_shapley_all,
                            iter_homomorphisms)
from shapfact.parsing import parse_facts, parse_query, parse_schema
from shapfact.prob import brute_prob, prob_eval, prob_eval_hierarchical
from shapfact.rewriting import (FilterStep, MaterialiseStep, RewriteTrace,
                                apply_step, rewrite, shapley_exo,
                                shapley_exo_all)
from shapfact.structure import (VerdictKind, classify_query,
                                exogenous_atom_components,
                                exogenous_variables, is_hierarchical,
                                is_self_join_free)


def test_course_query_rewrite_shape(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    new_db, new_rule, trace = rewrite(staff_db_exo, q)
    # one step per exogenous component: {Stud(x)} and {not Course(y, CS)};
    # Reg(x, y) holds both shared variables, so both are filter steps
    assert [tuple(map(str, s.component)) for s in trace.steps] \
        == [("Stud(x)",), ("not Course(y, CS)",)]
    assert [str(s.anchor) for s in trace.steps] == ["Reg(x, y)"] * 2
    assert str(new_rule) == "q() :- not TA(x), Reg(x, y)."
    assert is_hierarchical(new_rule) and is_self_join_free(new_rule)
    # the kept endogenous facts survive untouched; the dropped ones are the
    # registrations for CS courses, which are null players
    kept = set(new_db.endogenous)
    assert kept <= set(staff_db_exo.endogenous)
    assert all(staff_db_exo.get(*f.key) is f for f in kept)
    assert sorted(map(str, set(staff_db_exo.endogenous) - kept)) \
        == ["Reg(Adam, AI)", "Reg(Caroline, DB)"]
    # no relation was minted, and Stud and Course left the schema
    names = {r.name for r in new_db.schema.relations}
    assert not any(n.startswith(RESERVED_PREFIX) for n in names)
    assert not {"Stud", "Course"} & names


def test_course_query_values_preserved(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    expected = brute_shapley_all(staff_db_exo, q)
    values = shapley_exo_all(staff_db_exo, q)
    assert values == expected
    assert list(values) == list(staff_db_exo.endogenous)


def test_shapley_exo_entry_point(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    expected = brute_shapley_all(staff_db_exo, q)
    # TA(Adam) is kept; Reg(Adam, AI) is dropped by the Course filter
    for fact in (staff_fact(staff_db_exo, "TA", "Adam"),
                 staff_fact(staff_db_exo, "Reg", "Adam", "AI")):
        assert shapley_exo(staff_db_exo, q, fact) == expected[fact]


def test_each_step_preserves_values(staff_db_exo):
    """Replay the recorded steps one by one; after every step the full
    value vector (by the oracle) must be unchanged, with 0 for each fact a
    step dropped."""
    q = single_disjunct(parse_query(Q2, staff_db_exo.schema))
    baseline = {f.key: v
                for f, v in brute_shapley_all(staff_db_exo, q).items()}
    _, _, trace = rewrite(staff_db_exo, q)
    db, rule = staff_db_exo, q
    for step in trace.steps:
        db, rule, _ = apply_step(db, rule, step, trace.domain)
        now = {f.key: v for f, v in brute_shapley_all(db, rule).items()}
        assert {**dict.fromkeys(baseline, 0), **now} == baseline, \
            f"value drift after {step.component}"


# R(y) holds the shared variable of V(y), so V is filtered; no positive
# ordinary atom holds x, so S(x) falls back to a padded fresh relation
MIXED_SCHEMA = ("relation R/1\nrelation S/1 exogenous\nrelation T/2\n"
                "relation V/1 exogenous")
MIXED_Q = "q() :- R(y), S(x), not T(x, y), V(y)."
MIXED_FACTS = """
    endo R(a)
    endo R(b)
    endo R(c)
    exo S(a)
    exo S(b)
    endo T(a, a)
    endo T(b, a)
    endo T(b, b)
    exo V(a)
    exo V(b)
"""


def _check_replay(db, q, kinds):
    final_db, final_rule, trace = rewrite(db, q)
    lines = trace.describe().splitlines()[1:]
    assert [line.split("[")[1].split("]")[0] for line in lines] == kinds
    cur_db, cur_rule = db, q
    for step, (_before, after) in zip(trace.steps, trace.sizes):
        cur_db, cur_rule, produced = apply_step(cur_db, cur_rule, step,
                                                trace.domain)
        if isinstance(step, MaterialiseStep):
            assert produced == after
        else:
            assert produced == 0
            name = step.anchor.relation.name
            assert len(cur_db.relation_facts(name)) == after
    assert cur_db.facts == final_db.facts
    assert cur_rule == final_rule


def test_replay_reproduces_rewrite_exactly(staff_db_exo):
    q = single_disjunct(parse_query(Q2, staff_db_exo.schema))
    _check_replay(staff_db_exo, q, ["filter", "filter"])


def test_replay_reproduces_mixed_rewrite_exactly():
    schema = parse_schema(MIXED_SCHEMA)
    db = parse_facts(MIXED_FACTS, schema)
    q = single_disjunct(parse_query(MIXED_Q, schema))
    _check_replay(db, q, ["materialise", "filter"])


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


def _check_guard(rule, kind):
    # y never touches a non-exogenous atom, so V shares no variable: it is
    # a guard ("does V hold at all"), true with V(b) and false without
    schema = parse_schema("relation A/1\nrelation B/0\n"
                          "relation V/1 exogenous")
    q = parse_query(rule, schema)
    for facts, holds in (("endo A(a)\nendo B()\nexo V(b)", True),
                         ("endo A(a)\nendo B()", False)):
        db = parse_facts(facts, schema)
        values = shapley_exo_all(db, q)
        assert [type(s) for s in rewrite(db, q)[2].steps] == [kind]
        expected = brute_shapley_all(db, q)
        assert values == expected
        assert any(expected.values()) == holds


def test_variable_free_exogenous_atom_becomes_guard():
    # A(x) anchors a filter that keeps all of A's facts or none
    _check_guard("q() :- A(x), V(y).", FilterStep)


def test_variable_free_exogenous_guard_without_positive_atom():
    # with no positive ordinary atom, V projects down to a zero-column
    # relation
    _check_guard("q() :- not B(), V(y).", MaterialiseStep)


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


EXO, ENDO = Provenance.EXOGENOUS, Provenance.ENDOGENOUS


@pytest.mark.parametrize("extra, kind", [
    ([], None),
    ([(("a\nb",), EXO, None)], SchemaSyntaxError),
    ([(("c",), ENDO, None)], ProvenanceError),
    ([(("d",), EXO, Fraction(1, 2))], BadProbabilityError),
    ([(("e", "f"), EXO, None)], ArityError),
    ([(("g\th",), EXO, Fraction(1)), (("i",), ENDO, Fraction(3, 2)),
      (("j\x85",), EXO, None)], ProvenanceError),
], ids=["valid", "line-break", "endogenous", "uncertain", "arity",
        "counted"])
def test_exogenous_facts_are_refused_as_fact_violations_says(extra, kind):
    """The rewrite refuses the first violation that
    ``fact_violations`` finds among the facts of the exogenous relations,
    counting the others, or none; a tab is no line break."""
    r, s = RelationSym("R", 1), RelationSym("S", 1, exogenous_only=True)
    facts = [Fact(r, ("a",)), Fact(s, ("a",), Provenance.EXOGENOUS),
             Fact(s, ("b",), Provenance.EXOGENOUS, Fraction(1))]
    facts += [Fact(s, *fact) for fact in extra]
    db = Database(Schema([r, s]), facts)
    q = parse_query("q() :- R(x), S(x).", db.schema)
    problems = [p for f in db.relation_facts("S")
                for p in fact_violations(f, db.schema)]
    if kind is None:
        assert not problems and rewrite(db, q)
        return
    message = problems[0][1] + (f" (and {len(problems) - 1} more "
                                f"problem(s))" if len(problems) > 1 else "")
    with pytest.raises(kind) as err:
        rewrite(db, q)
    assert problems[0][0] is kind and str(err.value) == message


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
    # S(x) shares x with T(x, y), and no positive ordinary atom holds x, so
    # S is materialised padded with y: 10 S facts times a 20-constant
    # domain project to 200 tuples, and a cap of 100 refuses before any of
    # them is built
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
    assert [type(s) for s in trace.steps] == [MaterialiseStep]
    assert [after for _before, after in trace.sizes] == [200]


def test_fresh_relations_have_the_arity_of_their_facts():
    cases = [(MIXED_SCHEMA, MIXED_FACTS, MIXED_Q),
             ("relation R/2\nrelation S/2 exogenous\n"
              "relation P/2 exogenous\nrelation T/2",
              "endo R(a, b)\nendo T(a, b)\nexo S(a, a)\nexo S(a, b)\n"
              "exo P(a, b)", NOPATH_Q)]
    for schema_text, facts, rule in cases:
        schema = parse_schema(schema_text)
        db = parse_facts(facts, schema)
        new_db, _, trace = rewrite(db, parse_query(rule, schema))
        fresh = [s for s in trace.steps if isinstance(s, MaterialiseStep)]
        assert fresh
        for step in fresh:
            minted = new_db.relation_facts(step.relation.name)
            assert minted
            assert new_db.schema[step.relation.name] == step.relation
            assert {len(f.args) for f in minted} == {step.relation.arity}
            assert step.relation.arity == len(step.atom.terms)


def test_matches_oracle_on_random_instances():
    rng = random.Random(555)
    for _ in range(30):
        db, q = random_exo_rewrite_instance(rng, max_endo=7)
        values = shapley_exo_all(db, q)
        assert len(rewrite(db, q)[2].steps) == len(
            exogenous_atom_components(single_disjunct(q)))
        assert values == brute_shapley_all(db, q)


def _materialise_only(db, rule):
    """The rewrite with materialise steps only, as it stood before filter
    steps: every exogenous component becomes a fresh exogenous relation
    over its shared variables, padded over the active domain.  Kept here
    as the reference that the filter steps are checked against."""
    domain = active_domain(db, rule)
    exo_vars = exogenous_variables(rule)
    for seq, component in enumerate(exogenous_atom_components(rule),
                                    start=1):
        db, rule, _, _ = _materialised(db, rule, seq, component, domain,
                                       exo_vars)
    return db, rule


def _reference_parts(db, component):
    positive = [a for a in component if not a.negated]
    negated = [a for a in component if a.negated]
    index = _index(f for a in positive
                   for f in db.relation_facts(a.relation.name))
    present = {a.relation.name: db.tuples(a.relation.name) for a in negated}

    def blocked(h):
        return any(_image(a, h)[1] in present[a.relation.name]
                   for a in negated)

    return positive, negated, index, blocked


def _materialised(db, rule, seq, component, domain, exo_vars):
    """One materialise step of the references: the database, the rule,
    the step and the tuples it builds."""
    ordinary = [a for a in rule.atoms if not a.relation.exogenous_only]
    proj = tuple(dict.fromkeys(v for a in component for v in a.variables
                               if v not in exo_vars))
    pad = ()
    if proj:
        beta = next(a for a in ordinary if set(proj) <= set(a.variables))
        pad = tuple(v for v in beta.variables if v not in proj)
    positive, negated, index, blocked = _reference_parts(db, component)
    bound = {v for a in positive for v in a.variables}
    free = [v for v in dict.fromkeys(v for a in negated for v in a.variables)
            if v not in bound]
    projected = set()
    for h in iter_homomorphisms(positive, index):
        for values in itertools.product(domain, repeat=len(free)):
            h.update(zip(free, values))
            if not blocked(h):
                projected.add(tuple(h[v] for v in proj))
    sym = RelationSym(f"{RESERVED_PREFIX}{seq}", len(proj) + len(pad),
                      exogenous_only=True)
    facts = [Fact(sym, args + more, Provenance.EXOGENOUS)
             for args in projected
             for more in itertools.product(domain, repeat=len(pad))]
    step = MaterialiseStep(component, sym, proj, pad)
    rule = CQNeg(tuple(step.atom if a == component[0] else a
                       for a in rule.atoms if a not in component[1:]),
                 head=rule.head)
    db = db.with_relations_replaced([a.relation.name for a in component],
                                    [sym], facts)
    return db, rule, step, len(facts)


def _per_step_reference(db, rule):
    """The rewrite as it stood before it judged each component once: a
    filter step matches every anchor fact again and searches the
    homomorphisms of the component once per distinct binding, and every
    step builds a whole database.  Kept here as the reference that the
    one-pass rewrite is checked against; returns the rewritten database
    and rule, the steps, their sizes and the domain."""
    domain = active_domain(db, rule)
    exo_vars = exogenous_variables(rule)
    steps, sizes = [], []
    for seq, component in enumerate(exogenous_atom_components(rule),
                                    start=1):
        before = tuple(len(db.relation_facts(a.relation.name))
                       for a in component)
        inside = {v for a in component for v in a.variables}
        anchor = next((a for a in rule.atoms if not a.negated
                       and not a.relation.exogenous_only
                       and inside - exo_vars <= set(a.variables)), None)
        if anchor is None:
            db, rule, step, after = _materialised(db, rule, seq, component,
                                                  domain, exo_vars)
            steps.append(step)
            sizes.append((before, after))
            continue
        positive, _, index, blocked = _reference_parts(db, component)
        shared = [v for v in anchor.variables if v in inside]
        holds, kept = {}, []
        for fact in db.relation_facts(anchor.relation.name):
            binding = _match(anchor, fact.args, {})
            if binding is None:
                continue
            key = tuple(binding[v] for v in shared)
            if key not in holds:
                holds[key] = any(not blocked(h) for h in iter_homomorphisms(
                    positive, index, dict(zip(shared, key))))
            if holds[key]:
                kept.append(fact)
        names = {a.relation.name for a in component}
        skip = names | {anchor.relation.name}
        db = Database(db.schema.extended((), dropped=names),
                      [f for f in db.facts if f.relation.name not in skip]
                      + kept)
        rule = CQNeg(tuple(a for a in rule.atoms if a not in component),
                     head=rule.head)
        steps.append(FilterStep(component, anchor))
        sizes.append((before, len(kept)))
    return db, rule, steps, sizes, domain


def _check_against_the_per_step_reference(db, rule):
    """The rewrite gives the reference's facts, with provenance and
    probability, schema, rule, steps, sizes, domain and trace text;
    returns whether a filter step dropped an anchor fact."""
    new_db, new_rule, trace = rewrite(db, rule)
    ref_db, ref_rule, steps, sizes, domain = _per_step_reference(db, rule)
    assert [(f.key, f.provenance, f.probability) for f in new_db.facts] \
        == [(f.key, f.provenance, f.probability) for f in ref_db.facts]
    assert new_db.schema.relations == ref_db.schema.relations
    assert new_rule == ref_rule
    assert trace.steps == tuple(steps) and trace.sizes == tuple(sizes)
    assert trace.exogenous == tuple(sorted(
        a.relation.name for a in rule.atoms if a.relation.exogenous_only))
    assert trace.domain == domain
    assert trace.describe() == RewriteTrace(
        trace.exogenous, tuple(steps), tuple(sizes), (db, rule)).describe()
    return any(len(new_db.relation_facts(s.anchor.relation.name))
               < len(db.relation_facts(s.anchor.relation.name))
               for s in steps if isinstance(s, FilterStep))


def _priced(rng, db):
    return Database(db.schema, [
        Fact(f.relation, f.args, f.provenance,
             Fraction(rng.randint(1, 7), 8) if f.endogenous else None)
        for f in db.facts])


@pytest.mark.parametrize("generator, seed, floors", [
    (random_q2_instance, 16001, (45, 35)),
    (random_exo_rewrite_instance, 16002, (18, 8)),
])
def test_filter_steps_match_the_materialise_only_reference(generator, seed,
                                                           floors):
    """Exact values through the rewrite = through the materialise-only
    reference = brute force, and lifted probability, by either rewrite,
    = world enumeration.  The floors count the draws with a nonzero value,
    and those that also drop an endogenous fact."""
    rng = random.Random(seed)
    nonzero = dropping = 0
    for _ in range(200):
        db, rule = generator(rng, max_endo=8)
        expected = brute_shapley_all(db, rule)
        values = shapley_exo_all(db, rule)
        assert values == expected
        assert shapley_exact_all(*_materialise_only(db, rule)) == expected
        new_db, _, _ = rewrite(db, rule)
        if any(expected.values()):
            nonzero += 1
            dropping += new_db.n_endogenous < db.n_endogenous
        priced = _priced(rng, db)
        want = brute_prob(priced, rule)
        assert prob_eval(priced, rule) == want
        assert prob_eval_hierarchical(*_materialise_only(priced, rule)) \
            == want
    assert nonzero >= floors[0] and dropping >= floors[1]


@pytest.mark.parametrize("generator, seed, floor", [
    (random_q2_instance, 29001, 170),
    (random_exo_rewrite_instance, 29002, 90),
])
def test_rewrite_matches_the_per_step_reference(generator, seed, floor):
    """The one-pass rewrite gives what the per-step reference gives, on
    priced draws.  The floor counts the draws where a filter step drops an
    anchor fact: 193 and 104 of the 200."""
    rng = random.Random(seed)
    dropping = 0
    for _ in range(200):
        db, rule = generator(rng, max_endo=8)
        dropping += _check_against_the_per_step_reference(_priced(rng, db),
                                                          rule)
    assert dropping >= floor


# rules whose rewrite takes each shape that a filter step can have, over
# schemas whose relations R, S and T are ordinary
REWRITE_SHAPES = {
    # three components filter R(x, y), one after the other
    "three_on_one_anchor": ("relation A/1 exogenous\nrelation B/1 exogenous"
                            "\nrelation C/2 exogenous\nrelation R/2\n"
                            "relation T/1",
                            "q() :- A(x), not B(y), R(x, y), C(y, z), "
                            "not T(x)."),
    # only the anchor binds y, the variable of the negated component
    "anchor_binds_negated": ("relation C/2 exogenous\nrelation R/2\n"
                             "relation T/1",
                             "q() :- R(x, y), not C(y, K), T(x)."),
    # S binds x but not y, which only not P and the anchor hold
    "both_signs_open": ("relation P/2 exogenous\nrelation R/2\n"
                        "relation S/2 exogenous",
                        "q() :- R(x, y), S(x, z), not P(z, y)."),
    # S binds the one shared variable, and not P is checked on its facts
    "both_signs_bound": ("relation P/1 exogenous\nrelation R/1\n"
                         "relation S/2 exogenous",
                         "q() :- R(x), S(x, z), not P(z)."),
    # S(x) is materialised, then V(y) filters R(y)
    "materialise_then_filter": (MIXED_SCHEMA, MIXED_Q),
}


def _random_facts(rng, schema):
    """Random facts over four constants: some of each relation, those of
    an ordinary relation endogenous with probability 3/4, and priced."""
    facts = []
    for rel in schema.relations:
        rows = list(itertools.product(("a", "b", "c", "K"),
                                      repeat=rel.arity))
        for args in rng.sample(rows, rng.randint(0, min(len(rows), 5))):
            endo = not rel.exogenous_only and rng.random() < 0.75
            facts.append(Fact(rel, args, Provenance.ENDOGENOUS if endo
                              else Provenance.EXOGENOUS,
                              Fraction(rng.randint(1, 7), 8) if endo
                              else None))
    return Database(schema, facts)


@pytest.mark.parametrize("shape", sorted(REWRITE_SHAPES))
def test_rewrite_shapes_match_the_per_step_reference(shape):
    """Each shape takes the steps named, and the one-pass rewrite gives
    what the per-step reference gives; the floor counts the draws where a
    filter step drops an anchor fact."""
    schema_text, text = REWRITE_SHAPES[shape]
    schema = parse_schema(schema_text)
    rule = single_disjunct(parse_query(text, schema))
    kinds = {"three_on_one_anchor": [FilterStep] * 3,
             "materialise_then_filter": [MaterialiseStep, FilterStep]}
    # of the 60 draws, 48, 16, 39, 46 and 34 drop one
    floor = {"three_on_one_anchor": 40, "anchor_binds_negated": 12,
             "both_signs_open": 32, "both_signs_bound": 38,
             "materialise_then_filter": 28}[shape]
    rng = random.Random(29003)
    dropping = 0
    for _ in range(60):
        db = _random_facts(rng, schema)
        assert [type(s) for s in rewrite(db, rule)[2].steps] \
            == kinds.get(shape, [FilterStep])
        dropping += _check_against_the_per_step_reference(db, rule)
    assert dropping >= floor


@pytest.mark.parametrize("anchor, matches", [("R(x, y)", 0),
                                             ("R(x, y, K)", 1)])
@pytest.mark.parametrize("components", [1, 2, 3])
def test_one_database_build_and_one_match_per_anchor_fact(
        anchor, matches, components, monkeypatch):
    """However many filter steps share the anchor, a rewrite builds one
    database and matches each anchor fact against the anchor at most
    once: once when the anchor has a constant, never when it is distinct
    variables, which match every fact of its arity."""
    atoms = ["A(x)", "not B(y)", "C(y, z)"][:components]
    arity = anchor.count(",") + 1
    schema = parse_schema("relation A/1 exogenous\nrelation B/1 exogenous\n"
                          f"relation C/2 exogenous\nrelation R/{arity}\n"
                          "relation T/1")
    rule = single_disjunct(parse_query(
        f"q() :- {', '.join(atoms + [anchor])}, not T(x).", schema))
    counts = Counter()
    init, match = Database.__init__, rewriting._match

    def counted_init(self, *args):
        counts["builds"] += 1
        init(self, *args)

    def counted_match(*args):
        counts["matches"] += 1
        return match(*args)

    rng = random.Random(29004)
    for _ in range(20):
        db = _random_facts(rng, schema)
        monkeypatch.setattr(Database, "__init__", counted_init)
        monkeypatch.setattr(rewriting, "_match", counted_match)
        counts.clear()
        _, _, trace = rewrite(db, rule)
        monkeypatch.undo()
        assert [type(s) for s in trace.steps] == [FilterStep] * components
        assert counts["builds"] == 1
        assert counts["matches"] == matches * len(db.relation_facts("R"))


def test_without_exogenous_relations_the_rewrite_does_no_work(monkeypatch):
    """A rule with no exogenous relation comes back over the same
    database, and the active domain is computed only when the trace's
    domain is read, once."""
    rng = random.Random(29005)
    calls = Counter()
    domain = rewriting.active_domain

    def counted(*args):
        calls["domain"] += 1
        return domain(*args)

    monkeypatch.setattr(rewriting, "active_domain", counted)
    for shape in sorted(RULE_SHAPES):
        db, rule = random_shaped_instance(rng, shape)
        calls.clear()
        new_db, new_rule, trace = rewrite(db, rule)
        assert new_db is db and new_rule == rule
        assert (trace.exogenous, trace.steps, trace.sizes) == ((), (), ())
        assert calls["domain"] == 0
        assert trace.domain == domain(db, rule) and trace.domain
        assert calls["domain"] == 1
        assert trace.describe() == (f"domain size {len(trace.domain)}; "
                                    f"exogenous relations: (none)")


@pytest.mark.parametrize("generator, seed, floors", [
    (random_q2_instance, 17001, (34, 200)),
    (random_exo_rewrite_instance, 17002, (15, 40)),
])
def test_single_fact_matches_all_and_dropped_facts_skip_the_count(
        generator, seed, floors, monkeypatch):
    """``shapley_exo`` values a fact along its own path in the rewritten
    database, equal to ``shapley_exo_all``; a fact that a filter step
    dropped reads 0 without a count.  The floors count the draws with a
    nonzero value, and the dropped facts."""
    counts = Counter()
    weighted_count = decompose.weighted_count

    def spy(*args):
        counts["weighted_count"] += 1
        return weighted_count(*args)

    monkeypatch.setattr(decompose, "weighted_count", spy)
    rng = random.Random(seed)
    nonzero = dropped = 0
    for _ in range(100):
        db, rule = generator(rng, max_endo=8)
        values = shapley_exo_all(db, rule)
        kept, _, _ = rewrite(db, rule)
        for fact in db.endogenous:
            counts.clear()
            assert shapley_exo(db, rule, fact) == values[fact]
            assert counts["weighted_count"] == (fact in kept)
            dropped += fact not in kept
        nonzero += any(values.values())
    assert nonzero >= floors[0] and dropped >= floors[1]


@pytest.mark.parametrize("generator, seed, floors", [
    (random_q2_instance, 25001, (40, 0)),
    (random_exo_rewrite_instance, 25002, (18, 55)),
])
def test_order_reversing_renaming_keeps_every_value(generator, seed, floors):
    """Renaming every constant, in the facts and the rule, so that the
    sorted domain reverses moves each value to the renamed fact; the
    domain that materialise steps pad over reverses with it.  The floors
    count the draws with a nonzero value, and with a materialise step
    (Q2-shaped rules are filtered only)."""
    rng = random.Random(seed)
    nonzero = materialised = 0
    for _ in range(200):
        db, rule = generator(rng, max_endo=8)
        new_db, new_rule, names = reverse_constants(db, rule)
        values = shapley_exo_all(db, rule)
        moved = {Fact(f.relation, tuple(names[a] for a in f.args)): v
                 for f, v in values.items()}
        assert shapley_exo_all(new_db, new_rule) == moved
        nonzero += any(values.values())
        materialised += any(isinstance(s, MaterialiseStep)
                            for s in rewrite(db, rule)[2].steps)
    assert nonzero >= floors[0] and materialised >= floors[1]


@pytest.mark.parametrize("generator, seed, floor", [
    (random_q2_instance, 25001, 40),
    (random_exo_rewrite_instance, 25002, 18),
])
def test_facts_of_an_unused_relation_are_null_players(generator, seed,
                                                      floor):
    """An endogenous fact of a relation ``N`` that the schema declares and
    the rule never names gets 0, and every other value stays; its fresh
    constant also widens the domain that materialise steps pad over.  The
    floor counts the draws with a nonzero value."""
    rng = random.Random(seed)
    unused = RelationSym("N", 1)
    nonzero = 0
    for _ in range(200):
        db, rule = generator(rng, max_endo=8)
        extra = Fact(unused, ("fresh",), Provenance.ENDOGENOUS)
        grown = Database(db.schema.extended([unused]), db.facts + (extra,))
        values = shapley_exo_all(db, rule)
        assert shapley_exo_all(grown, rule) == {**values, extra: 0}
        assert shapley_exo(grown, rule, extra) == 0
        nonzero += any(values.values())
    assert nonzero >= floor


def test_without_exogenous_relations_exo_is_the_exact_engine():
    """A hierarchical rule with no exogenous relation rewrites in no step,
    so the exo engine returns the exact engine's values, for all facts and
    for each one."""
    rng = random.Random(25003)
    nonzero = 0
    for shape in sorted(RULE_SHAPES):
        for _ in range(10):
            db, rule = random_shaped_instance(rng, shape)
            values = shapley_exact_all(db, rule)
            assert shapley_exo_all(db, rule) == values
            for fact in db.endogenous:
                assert shapley_exo(db, rule, fact) \
                    == shapley_exact(db, rule, fact)
            nonzero += any(values.values())
    assert nonzero >= 35


# per shape: facts, and the arguments of the R facts that the filter
# steps drop
ANCHOR_CASES = {
    # R(a, b, c) misses the constant; C(a, K) rejects R(a, a, K)
    "constant": ("endo R(a, a, K)\nendo R(a, b, K)\nendo R(b, b, K)\n"
                 "endo R(a, b, c)\nexo C(a, K)",
                 [("a", "a", "K"), ("a", "b", "c")]),
    # R(a, b, a) misses the repeated variable; A rejects R(c, c, a), and
    # C rejects R(b, b, b)
    "repeated": ("endo R(a, a, a)\nendo R(a, b, a)\nendo R(c, c, a)\n"
                 "endo R(b, b, b)\nexo C(a, K)",
                 [("a", "b", "a"), ("b", "b", "b"), ("c", "c", "a")]),
    # y = a fails not C(y, z), D(z) at both D values; A rejects R(c, b)
    "two_atom": ("endo R(a, a)\nendo R(a, b)\nendo R(b, b)\n"
                 "endo R(c, b)\nexo C(a, K)\nexo C(a, c)\nexo C(b, c)\n"
                 "exo D(K)\nexo D(c)",
                 [("a", "a"), ("c", "b")]),
}


@pytest.mark.parametrize("shape", sorted(ANCHOR_CASES))
def test_anchor_shapes_drop_exactly_the_unusable_facts(shape):
    """An anchor with a constant or a repeated variable drops the facts
    that do not match it, and a two-atom component filters as one
    condition; every dropped fact is a null player."""
    schema_text, text = Q2_SHAPES[shape]
    schema = parse_schema(schema_text)
    rule = parse_query(text, schema)
    facts, dropped = ANCHOR_CASES[shape]
    db = parse_facts("exo A(a)\nexo A(b)\nendo T(b)\n" + facts, schema)
    new_db, _, trace = rewrite(db, rule)
    assert [type(s) for s in trace.steps] == [FilterStep] * 2
    gone = set(db.endogenous) - set(new_db.endogenous)
    assert sorted(f.args for f in gone) == dropped
    expected = brute_shapley_all(db, rule)
    assert any(expected.values())
    assert shapley_exo_all(db, rule) == expected


def test_trace_describe_is_readable(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    _, _, trace = rewrite(staff_db_exo, q)
    text = trace.describe()
    assert "exogenous relations: Course, Stud" in text
    assert text.count("step") == len(trace.steps)
    assert text.count("[filter]") == len(trace.steps)


def test_trace_describe_text_is_pinned(staff_db_exo):
    q = parse_query(Q2, staff_db_exo.schema)
    _, _, trace = rewrite(staff_db_exo, q)
    assert trace.describe() == (
        "domain size 12; exogenous relations: Course, Stud\n"
        "step 1 [filter] Stud(x) on Reg(x, y) "
        "(4 tuples in, 5 Reg facts kept)\n"
        "step 2 [filter] not Course(y, CS) on Reg(x, y) "
        "(4 tuples in, 3 Reg facts kept)")


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

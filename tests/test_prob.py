"""Probability engine: lifted evaluation vs world enumeration."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (Q2, random_exo_rewrite_instance,
                      random_hierarchical_instance, random_instance,
                      random_prob_instance, random_union_instance)
from shapfact.cli import main
from shapfact.errors import (BadProbabilityError, CapExceededError,
                             HasNonHierPathError, NotHierarchicalError)
from shapfact.decompose import weighted_count
from shapfact.exact import count_satisfying_subsets
from shapfact.model import (CQNeg, Database, Fact, Provenance, Query,
                            RelationSym, Schema)
from shapfact.naive import DEFAULT_CAP, eval_boolean
from shapfact.parsing import parse_facts, parse_query, parse_schema
from shapfact.prob import (brute_prob, fact_probability, prob_eval,
                           prob_eval_hierarchical)
from shapfact.rewriting import rewrite


def test_independent_conjunction():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("prob 1/2 R(a)\nprob 1/3 S(b)", schema)
    q = parse_query("q() :- R(x), S(y).", schema)
    assert prob_eval_hierarchical(db, q) == Fraction(1, 6)
    assert brute_prob(db, q) == Fraction(1, 6)


def test_noisy_or_within_one_relation():
    schema = parse_schema("relation R/1")
    db = parse_facts("prob 1/2 R(a)\nprob 1/2 R(b)\nprob 1/2 R(c)", schema)
    q = parse_query("q() :- R(x).", schema)
    assert prob_eval_hierarchical(db, q) == Fraction(7, 8)


def test_negation_flips_probability():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("prob 3/4 R(A)\nprob 1/2 S(b)", schema)
    q = parse_query("q() :- S(x), not R(A).", schema)
    assert prob_eval_hierarchical(db, q) == Fraction(1, 8)


def test_deterministic_facts_and_absent_probabilities():
    schema = parse_schema("relation R/1")
    # provenance lines without probabilities mean certainty
    db = parse_facts("endo R(a)\nprob 0 R(b)", schema)
    q = parse_query("q() :- R(x).", schema)
    assert prob_eval_hierarchical(db, q) == 1


def test_matches_enumeration_on_random_instances():
    rng = random.Random(246810)
    for _ in range(60):
        db, query = random_prob_instance(rng, max_uncertain=10)
        assert prob_eval_hierarchical(db, query) == brute_prob(db, query)


def _decimal_prob_instance(rng: random.Random) -> tuple[Database, CQNeg]:
    """A hierarchical rule over facts with three-digit decimal
    probabilities, and probabilities 0 and 1; at most ten uncertain."""
    db, query = random_hierarchical_instance(rng, max_endo=10)
    return Database(db.schema, [
        f if not f.endogenous else Fact(
            f.relation, f.args, f.provenance,
            rng.choice([Fraction(0), Fraction(1)]) if rng.random() < 0.2
            else Fraction(f"0.{rng.randint(1, 999):03d}"))
        for f in db.facts]), query


def _fraction_probability(db: Database, query: CQNeg) -> Fraction:
    """The lifted recursion under a probability weighting of plain
    ``Fraction``s."""
    def ground(atom, fact):
        p = Fraction(0) if fact is None else fact_probability(fact)
        return [1 - p if atom.negated else p], None

    vector, _tree = weighted_count(query, db.facts,
                                   lambda facts: [Fraction(1)], ground)
    return vector[0]


@pytest.mark.parametrize("draw", [
    lambda rng: random_prob_instance(rng, max_uncertain=10),
    _decimal_prob_instance], ids=["dyadic", "decimal"])
def test_lifted_arithmetic_matches_a_fraction_weighting(draw):
    rng = random.Random(15002)
    draws, strict = 300, 0
    for _ in range(draws):
        db, query = draw(rng)
        got = prob_eval_hierarchical(db, query)
        assert type(got) is Fraction
        assert got == _fraction_probability(db, query) == brute_prob(db, query)
        strict += 0 < got < 1
    # most draws of either generator give 0 or 1
    assert strict >= draws // 10


def test_probability_one_half_is_the_satisfying_share():
    # the lifted engine and exact counting run one recursion under two
    # weightings: with every endogenous fact at 1/2 and every exogenous
    # one certain, all endogenous subsets are equally likely
    rng = random.Random(97531)
    for _ in range(60):
        db, query = random_hierarchical_instance(rng)
        halves = Database(db.schema, [
            Fact(f.relation, f.args, f.provenance,
                 Fraction(1, 2) if f.endogenous else Fraction(1))
            for f in db.facts])
        satisfying = sum(count_satisfying_subsets(db, query))
        assert prob_eval_hierarchical(halves, query) == Fraction(
            satisfying, 2 ** db.n_endogenous)


def test_rewrite_route_matches_enumeration_on_random_instances():
    # non-hierarchical rules that only the exogenous rewrite makes
    # tractable; the exogenous facts stay certain.  Most draws give 0 or 1,
    # so a floor keeps the comparison from being vacuous.
    rng = random.Random(86420)
    draws, strict = 300, 0
    for _ in range(draws):
        db, query = random_exo_rewrite_instance(rng, max_endo=8)
        priced = Database(db.schema, [
            Fact(f.relation, f.args, f.provenance,
                 Fraction(rng.randint(1, 7), 8) if f.endogenous else None)
            for f in db.facts])
        want = brute_prob(priced, query)
        assert prob_eval(priced, query) == want
        strict += 0 < want < 1
    assert strict >= draws // 20


def test_refuses_non_hierarchical_rules(staff_db, q2):
    with pytest.raises(NotHierarchicalError):
        prob_eval_hierarchical(staff_db, q2)


def test_rewrite_route_handles_course_query(staff_schema_exo):
    # deterministic background relations, uncertain TA/Reg facts
    db = parse_facts(
        """
        prob 1 Stud(Adam)
        prob 1 Course(AI, CS)
        prob 1/2 TA(Adam)
        prob 1/2 Reg(Adam, OS)
        prob 1/2 Reg(Adam, AI)
        """,
        staff_schema_exo,
    )
    q = parse_query(Q2, staff_schema_exo)
    got = prob_eval(db, q)
    assert got == brute_prob(db, q)
    # q needs a non-CS registration (OS) and no TA duty: 1/2 * 1/2
    assert got == Fraction(1, 4)


def test_rewrite_route_refuses_with_path_witness():
    schema = parse_schema("relation R/2\nrelation S/2 exogenous\n"
                          "relation P/2 exogenous\nrelation T/2")
    db = parse_facts("prob 1/2 R(a, b)\nprob 1/2 T(a, b)\nprob 1 S(a, a)",
                     schema)
    q = parse_query(
        "q() :- not R(x, w), S(z, x), not P(z, y), T(y, w).", schema)
    with pytest.raises(HasNonHierPathError) as err:
        prob_eval(db, q)
    assert err.value.witness is not None


def test_exogenous_relations_must_be_certain():
    schema = parse_schema("relation R/1\nrelation S/1 exogenous")
    db = parse_facts("prob 1/2 R(a)\nexo S(a)", schema)
    q = parse_query("q() :- R(x), not S(x).", schema)
    # the schema marks S exogenous; a sub-certain S fact cannot exist, and
    # parse_facts already refuses to create one
    with pytest.raises(BadProbabilityError):
        parse_facts("prob 1/2 R(a)\nprob 1/2 S(a)", schema)
    assert prob_eval(db, q) == 0  # S(a) surely present blocks R(a)


def test_an_uncertain_exogenous_fact_built_in_code_is_refused():
    # no parser stands in the way here: the rewrite, which prob_eval goes
    # through, checks the facts of the exogenous relations itself
    r, s = RelationSym("R", 1), RelationSym("S", 1, exogenous_only=True)
    db = Database(Schema([r, s]), [
        Fact(r, ("A",), probability=Fraction(1, 2)),
        Fact(s, ("A",), Provenance.EXOGENOUS, Fraction(1, 2))])
    q = parse_query("q() :- R(x), not S(x).", db.schema)
    for engine in (rewrite, prob_eval):
        with pytest.raises(BadProbabilityError,
                           match=r"^fact S\(A\): relation S is declared "
                                 r"exogenous; its facts must have "
                                 r"probability 1$"):
            engine(db, q)


def _literal_brute_prob(db: Database, query: Query) -> Fraction:
    """The definition, literally: every set of the uncertain facts is a
    world, weighing the product of ``p`` over its facts and ``1 - p`` over
    the others, and the query is evaluated on it with the certain facts."""
    certain = [f for f in db.facts if fact_probability(f) == 1]
    uncertain = [f for f in db.facts if 0 < fact_probability(f) < 1]
    total = Fraction(0)
    for r in range(len(uncertain) + 1):
        for chosen in combinations(uncertain, r):
            picked = set(chosen)
            weight = Fraction(1)
            for f in uncertain:
                p = fact_probability(f)
                weight *= p if f in picked else 1 - p
            if eval_boolean(certain + list(chosen), query):
                total += weight
    return total


_MIXED = (None, Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2),
          Fraction(5, 8))


def _mixed(rng: random.Random, instance: tuple[Database, Query],
           most: int = 8) -> tuple[Database, Query]:
    """The instance with every fact, exogenous ones too, given a
    probability drawn from ``_MIXED``; past ``most`` uncertain facts, the
    uncertain draws become certain."""
    db, query = instance
    facts = []
    for f in db.facts:
        p = rng.choice(_MIXED)
        if p is not None and 0 < p < 1:
            most -= 1
            p = p if most >= 0 else None
        facts.append(Fact(f.relation, f.args, f.provenance, p))
    return Database(db.schema, facts), query


@pytest.mark.parametrize("draw, floor", [
    (lambda rng: random_prob_instance(rng, max_uncertain=8), 30),
    (lambda rng: _mixed(rng, random_instance(rng)), 30),
    (lambda rng: _mixed(rng, random_union_instance(rng)), 60),
], ids=["prob", "instance", "union"])
def test_brute_prob_equals_the_literal_world_loop(draw, floor):
    # most draws give 0 or 1, so a floor keeps the comparison from being
    # vacuous
    rng = random.Random(21021)
    strict = 0
    for _ in range(300):
        db, query = draw(rng)
        want = _literal_brute_prob(db, query)
        assert brute_prob(db, query) == want
        strict += 0 < want < 1
    assert strict >= floor


def test_impossible_fact_under_a_negated_atom():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("prob 1/2 R(A)\nprob 0 S(A)", schema)
    q = parse_query("q() :- R(x), not S(x).", schema)
    assert brute_prob(db, q) == Fraction(1, 2)


def test_certain_endogenous_facts():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(A)\nprob 1 R(B)\nprob 1/3 S(A)", schema)
    q = parse_query("q() :- R(x), not S(x), R(B).", schema)
    assert brute_prob(db, q) == 1
    q = parse_query("q() :- R(A), not S(A).", schema)
    assert brute_prob(db, q) == Fraction(2, 3)


def test_no_uncertain_facts():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(A)\nexo S(A)\nprob 0 S(B)\nprob 1 R(B)",
                     schema)
    for text, want in [("q() :- R(x).", 1), ("q() :- R(x), S(x).", 1),
                       ("q() :- R(x), not S(x), not R(B).", 0),
                       ("q() :- S(B).", 0)]:
        got = brute_prob(db, parse_query(text, schema))
        assert type(got) is Fraction and got == want


def test_world_enumeration_cap(tmp_path, capsys):
    schema_path = tmp_path / "schema.txt"
    schema_path.write_text("relation R/1\n")
    facts_path = tmp_path / "facts.txt"
    facts_path.write_text("".join(f"prob 1/2 R(c{i})\n"
                                  for i in range(DEFAULT_CAP)))
    schema = parse_schema(schema_path.read_text())
    db = parse_facts(facts_path.read_text(), schema)
    q = parse_query("q() :- R(x).", schema)
    with pytest.raises(CapExceededError,
                       match=rf"^{DEFAULT_CAP} probabilistic facts exceed "
                             rf"the enumeration cap {DEFAULT_CAP - 1}$"):
        brute_prob(db, q, cap=DEFAULT_CAP - 1)
    want = 1 - Fraction(1, 2 ** DEFAULT_CAP)
    assert brute_prob(db, q) == want
    with pytest.raises(SystemExit) as exited:
        main(["prob", "--schema", str(schema_path), "--facts",
              str(facts_path), "--query", "q() :- R(x).", "--method",
              "brute"])
    assert exited.value.code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probability"]["value"] == str(want)

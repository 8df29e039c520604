"""Data-model behavior: fact identity, database invariants, validation."""

from fractions import Fraction

import pytest

from conftest import staff_fact
from shapfact import brute_shapley, relevance, shapley_exact, shapley_exo
from shapfact.errors import (ArityError, BadProbabilityError,
                             DuplicateFactError, FactNotEndogenousError,
                             ProvenanceError, ReservedNameError, SafetyError,
                             SchemaSyntaxError, UnknownFactError,
                             UnsupportedQueryError)
from shapfact.model import (LINE_BREAKS, Atom, CQNeg, Const, Database, Fact,
                            Provenance, RelationSym, Schema, UCQNeg, Var,
                            active_domain, database_violations,
                            query_violations, raise_first, single_disjunct,
                            validate_database, validate_query)
from shapfact.parsing import format_fact, parse_query

R1 = RelationSym("R", 1)
S2 = RelationSym("S", 2)


def test_fact_identity_ignores_provenance():
    """A fact is its content; provenance is an annotation, not identity."""
    a = Fact(R1, ("c",), Provenance.ENDOGENOUS)
    b = Fact(R1, ("c",), Provenance.EXOGENOUS)
    assert a == b
    assert len({a, b}) == 1


def test_database_rejects_conflicting_provenance():
    schema = Schema([R1])
    with pytest.raises(DuplicateFactError):
        Database(schema, [Fact(R1, ("c",), Provenance.ENDOGENOUS),
                          Fact(R1, ("c",), Provenance.EXOGENOUS)])


def test_database_dedups_identical_facts():
    schema = Schema([R1])
    db = Database(schema, [Fact(R1, ("c",), Provenance.ENDOGENOUS)] * 3)
    assert len(db.facts) == 1


def test_database_facts_are_sorted_canonically():
    schema = Schema([S2, R1])
    db = Database(schema, [
        Fact(S2, ("b", "a"), Provenance.EXOGENOUS),
        Fact(R1, ("z",), Provenance.ENDOGENOUS),
        Fact(R1, ("a",), Provenance.ENDOGENOUS),
    ])
    assert [(f.relation.name, f.args) for f in db.facts] == [
        ("R", ("a",)), ("R", ("z",)), ("S", ("b", "a"))]


def test_with_fact_exogenous_and_without_fact():
    schema = Schema([R1])
    f = Fact(R1, ("c",), Provenance.ENDOGENOUS)
    g = Fact(R1, ("d",), Provenance.ENDOGENOUS)
    db = Database(schema, [f, g])
    promoted = db.with_fact_exogenous(f)
    assert promoted.get("R", ("c",)).provenance is Provenance.EXOGENOUS
    assert promoted.n_endogenous == 1
    removed = db.without_fact(f)
    assert removed.get("R", ("c",)) is None
    # the original is untouched
    assert db.n_endogenous == 2


@pytest.mark.parametrize("derive", ["with_fact_exogenous", "without_fact"])
def test_deriving_from_an_absent_fact_is_refused(derive):
    db = Database(Schema([R1]), [Fact(R1, ("c",))])
    with pytest.raises(UnknownFactError) as caught:
        getattr(db, derive)(Fact(R1, ("z",)))
    assert str(caught.value) == "fact R('z') is not in the database"


def test_one_endogenous_check_behind_every_engine(staff_db, q1):
    reg = staff_fact(staff_db, "Reg", "Adam", "OS")
    lookalike = Fact(reg.relation, reg.args, Provenance.EXOGENOUS)
    assert staff_db.require_endogenous(lookalike) is reg
    calls = (
        staff_db.require_endogenous,
        lambda f: shapley_exact(staff_db, q1, f),
        lambda f: shapley_exo(staff_db, q1, f),
        lambda f: brute_shapley(staff_db, q1, f),
        lambda f: relevance(staff_db, q1, f),
    )
    stud = staff_fact(staff_db, "Stud", "Adam")
    for fact in (stud, Fact(stud.relation, ("Nobody",))):
        for call in calls:
            with pytest.raises(FactNotEndogenousError,
                               match="not an endogenous fact"):
                call(fact)


def test_active_domain_includes_query_constants():
    schema = Schema([R1])
    db = Database(schema, [Fact(R1, ("a",), Provenance.ENDOGENOUS)])
    q = parse_query("q() :- R(x), not R(CS).")
    assert active_domain(db) == ("a",)
    assert active_domain(db, q) == ("CS", "a")


def test_unsafe_negation_is_rejected():
    q = CQNeg((Atom(R1, (Var("x"),)),
               Atom(S2, (Var("x"), Var("y")), negated=True)))
    problems = validate_query(q)
    assert problems and "y" in problems[0]
    with pytest.raises(SafetyError):
        parse_query("q() :- R(x), not S(x, y).")


def test_ground_negated_atom_is_safe():
    # uppercase-initial tokens are constants, so the negated atom binds no
    # variables and needs no positive support
    q = parse_query("q() :- R(x), not S(A1, B1).")
    assert validate_query(q) == []


def test_atom_arity_must_agree_with_the_schema():
    # the atom agrees with its own symbol, so only the schema's check fires
    q = CQNeg((Atom(R1, (Var("x"),)),))
    assert query_violations(q, Schema([RelationSym("R", 2)])) == [
        (ArityError, "rule 1: atom R(x) disagrees with schema arity 2")]


def test_zero_arity_relations_allowed():
    z = RelationSym("Flag", 0)
    db = Database(Schema([z]), [Fact(z, (), Provenance.ENDOGENOUS)])
    assert db.n_endogenous == 1
    q = CQNeg((Atom(z, ()),))
    assert validate_query(q) == []


def test_reserved_prefix_rejected_in_database():
    bad = RelationSym("__exo_1_co", 1)
    db = Database(Schema([bad]), [Fact(bad, ("c",), Provenance.EXOGENOUS)])
    problems = validate_database(db)
    assert problems
    with pytest.raises(ReservedNameError):
        raise_first(database_violations(db))


def test_exogenous_only_relation_cannot_hold_endogenous_facts():
    rel = RelationSym("R", 1, exogenous_only=True)
    db = Database(Schema([rel]), [Fact(rel, ("c",), Provenance.ENDOGENOUS)])
    assert validate_database(db)
    with pytest.raises(ProvenanceError):
        raise_first(database_violations(db))


def test_exogenous_only_relation_facts_have_probability_one():
    rel = RelationSym("E", 1, exogenous_only=True)
    sure = Fact(rel, ("a",), Provenance.EXOGENOUS, Fraction(1))
    assert validate_database(Database(Schema([rel]), [sure])) == []
    db = Database(Schema([rel]), [
        Fact(rel, ("a",), Provenance.EXOGENOUS, Fraction(1, 2))])
    assert validate_database(db)
    with pytest.raises(BadProbabilityError):
        raise_first(database_violations(db))


def test_constants_cannot_hold_line_breaks():
    for broken in ("a\nb", "a\r", "\u2028"):
        db = Database(Schema([R1]), [Fact(R1, (broken,))])
        assert validate_database(db)
        with pytest.raises(SchemaSyntaxError):
            raise_first(database_violations(db))


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_messages_write_a_line_break_as_its_escape(brk):
    # every rule of fact_violations fires: the arity, the line break, an
    # endogenous fact and a probability out of range in an exogenous
    # relation
    exo = RelationSym("R", 2, exogenous_only=True)
    fact = Fact(exo, (f"a{brk}b",), probability=Fraction(2))
    messages = validate_database(Database(Schema([exo]), [fact]))
    assert len(messages) == 4
    assert str(fact) == "R('a" + brk.encode("unicode_escape").decode() + "b')"
    with pytest.raises(DuplicateFactError) as err:
        Database(Schema([exo]), [fact, Fact(exo, fact.args)])
    for message in messages + [str(err.value)]:
        assert len(message.splitlines()) == 1, message
    with pytest.raises(SchemaSyntaxError, match="holds a line break"):
        format_fact(fact)


def test_schema_refuses_a_relation_declared_twice():
    with pytest.raises(SchemaSyntaxError, match="declared twice"):
        Schema([R1, RelationSym("R", 2)])


def test_single_disjunct_refuses_unions():
    q = UCQNeg((CQNeg((Atom(R1, (Var("x"),)),)),
                CQNeg((Atom(S2, (Var("x"), Var("x"))),))))
    with pytest.raises(UnsupportedQueryError):
        single_disjunct(q)


def test_atom_str_and_substitution():
    atom = Atom(S2, (Var("x"), Const("OS")), negated=True)
    assert str(atom) == "not S(x, OS)"


def test_probability_on_fact():
    f = Fact(R1, ("c",), Provenance.ENDOGENOUS, Fraction(1, 3))
    assert f.probability == Fraction(1, 3)
    # probability participates in conflict detection
    g = Fact(R1, ("c",), Provenance.ENDOGENOUS, Fraction(2, 3))
    with pytest.raises(DuplicateFactError):
        Database(Schema([R1]), [f, g])

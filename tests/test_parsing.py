"""Parser/printer tests: grammar corner cases, errors, round-trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapfact.errors import (ArityError, BadProbabilityError,
                             DuplicateFactError, FactNotEndogenousError,
                             ProvenanceError, QuerySyntaxError,
                             ReservedNameError, SafetyError,
                             SchemaSyntaxError, UnknownRelationError)
from shapfact.model import (Atom, CQNeg, Const, Database, Fact, Provenance,
                            RelationSym, Schema, Var)
from shapfact.parsing import (format_database, format_fact, format_query,
                              format_schema, parse_fact_reference,
                              parse_facts, parse_query, parse_schema)
from shapfact.relevance import relevance
from shapfact.reporting import Report, render_table


def test_case_decides_variable_vs_constant_in_queries():
    q = parse_query("q() :- Reg(x, CS).")
    atom = q.disjuncts[0].atoms[0]
    assert atom.terms == (Var("x"), Const("CS"))


def test_fact_arguments_are_constants_regardless_of_case():
    schema = parse_schema("relation R/2")
    db = parse_facts("endo R(x, CS)", schema)
    assert db.get("R", ("x", "CS")) is not None


def test_union_via_repeated_heads():
    q = parse_query("q() :- R(x).\nq() :- S(x, y).")
    assert len(q.disjuncts) == 2


def test_different_heads_rejected():
    with pytest.raises(QuerySyntaxError, match="head"):
        parse_query("q() :- R(x).\np() :- S(x, y).")


def test_semicolon_gets_a_helpful_hint():
    with pytest.raises(QuerySyntaxError, match="several rules"):
        parse_query("q() :- R(x); S(x, y).")


def test_missing_period_reported_with_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("q() :- R(x)")
    assert (err.value.line, err.value.column) == (1, 12)


def test_not_keyword_and_spacing():
    q = parse_query("q():-R(x),not S(x,x).")
    pos, neg = q.disjuncts[0].positives, q.disjuncts[0].negatives
    assert len(pos) == 1 and len(neg) == 1


def test_arity_conflict_within_query():
    with pytest.raises(ArityError):
        parse_query("q() :- R(x), R(x, y).")


def test_schema_enforces_arity():
    schema = parse_schema("relation R/2")
    with pytest.raises(ArityError):
        parse_query("q() :- R(x).", schema)
    with pytest.raises(UnknownRelationError):
        parse_query("q() :- T(x).", schema)


def test_reserved_prefix_rejected_everywhere():
    with pytest.raises(ReservedNameError):
        parse_query("q() :- __exo_1_co(x).")
    with pytest.raises(ReservedNameError) as excinfo:
        parse_schema("relation __exo_2_join/1")
    assert str(excinfo.value) == ("line 1: relation name __exo_2_join uses "
                                  "the reserved prefix __exo_")


def test_facts_refuse_a_reserved_name_in_a_schema_built_in_code():
    # the schema is checked before any line is read, so no line is named
    schema = Schema([RelationSym("__exo_1", 1)])
    with pytest.raises(ReservedNameError) as excinfo:
        parse_facts("not a fact line", schema)
    assert str(excinfo.value) == ("relation name __exo_1 uses the reserved "
                                  "prefix __exo_")


def test_relation_named_not_is_refused():
    # a query could name it only negated: ``not not(x)`` reads, ``not(x)``
    # does not
    with pytest.raises(ReservedNameError,
                       match="line 2: relation name not is reserved"):
        parse_schema("relation R/1\nrelation not/1")
    assert parse_schema("relation nota/1\nrelation Not/1").relations


def test_relation_declared_twice_names_the_second_line():
    # comment and blank lines count: the second R is on line 4
    with pytest.raises(SchemaSyntaxError) as excinfo:
        parse_schema("relation R/1\n# note\n\nrelation R/2\nrelation R/1")
    assert str(excinfo.value) == "line 4: relation R declared twice"


def test_a_schema_reports_its_first_problem_in_file_order():
    # the second declaration of R comes before the malformed line
    with pytest.raises(SchemaSyntaxError) as excinfo:
        parse_schema("relation R/1\nrelation R/1\n\nbad line")
    assert str(excinfo.value) == "line 2: relation R declared twice"


def test_malformed_schema_line_names_its_line():
    with pytest.raises(SchemaSyntaxError) as excinfo:
        parse_schema("relation R/1\nbogus line")
    assert str(excinfo.value) == ("line 2: expected 'relation Name/arity "
                                  "[exogenous]', got: bogus line")


def test_unsafe_rule_rejected_at_parse_time():
    with pytest.raises(SafetyError):
        parse_query("q() :- R(x), not S(x, y).")


# every spelling of a query pins the rules it reads, or the error type with
# the start of its message: the line and column where the text stops
# matching, or the rule that a relation check names
_QUERY_SCHEMA = "relation R/1\nrelation S/2\nrelation r/1\nrelation notR/1"
_QUERY_TEXTS = [
    ("q() :- R(x),  # a student\n  not S(x, y),\n  # a whole line\n"
     "  S(y, x).  # done",
     ["q() :- R(x), not S(x, y), S(y, x)."]),
    ("q() :- S(x, 'a#b'), S(x, 'it\\'s # no comment').",
     ["q() :- S(x, 'a#b'), S(x, 'it\\'s # no comment')."]),
    ("q():-R(x),not S(x,x).", ["q() :- R(x), not S(x, x)."]),
    ("q() :- R(x), not\nS(x, x).", ["q() :- R(x), not S(x, x)."]),
    ("q() :- R(x), not # why\n  S(x, x).", ["q() :- R(x), not S(x, x)."]),
    ("q() :- notR(x).", ["q() :- notR(x)."]),
    # ``not not(x)`` reads, but ``not`` is a reserved relation name
    ("q() :- R(x), not not(x).",
     (ReservedNameError, "rule 1: relation name not is reserved")),
    ("q() :- r(x), S(x, 'x').", ["q() :- r(x), S(x, 'x')."]),
    ("q() :- S(9z, _x), S(A, not).", ["q() :- S(9z, _x), S(A, not)."]),
    ("q ( ) :-\n  R(x)\n.\nq() :- S(x, y) .",
     ["q() :- R(x).", "q() :- S(x, y)."]),
    ("q() :- R(x), not(x).",
     (QuerySyntaxError, "line 1, column 14: expected a literal")),
    ("q() :- R(x), not (x).",
     (QuerySyntaxError, "line 1, column 14: expected a literal")),
    ("q(x) :- R(x).",
     (QuerySyntaxError, "line 1, column 1: the head takes no arguments")),
    ("q() :- R(x)", (QuerySyntaxError, "line 1, column 12: expected ','")),
    ("q() :- R(x),\n  S(x y).",
     (QuerySyntaxError, "line 2, column 3: expected a literal")),
    ("q() :- R(x); S(x, y).",
     (QuerySyntaxError, "line 1, column 12: ';' is not part of the syntax; "
                        "write a union as several rules with the same head")),
    ("q() :- R(x).\n  p() :- R(x).",
     (QuerySyntaxError, "line 2, column 3: all rules must share one head")),
    ("", (QuerySyntaxError, "line 1, column 1: no rules in query text")),
    ("  # only a comment\n", (QuerySyntaxError, "line 1, column 1: no rules")),
    ("q() :- R(x).\n__exo_1(x).",
     (QuerySyntaxError, "line 2, column 1: expected a rule head")),
    ("q() :- R(x), __exo_1(x).", (ReservedNameError, "rule 1: relation name "
                                                     "__exo_1 uses")),
    ("q() :- R(x).\nq() :- T(x).",
     (UnknownRelationError, "rule 2: relation T is not in the schema")),
    ("q() :- S(x, 'a\nb').",
     (QuerySyntaxError, "line 1, column 8: expected a literal")),
]


@pytest.mark.parametrize("text, expected", _QUERY_TEXTS)
def test_query_text_grammar(text, expected):
    schema = parse_schema(_QUERY_SCHEMA)
    if isinstance(expected, tuple):
        kind, start = expected
        with pytest.raises(kind, match=f"^{re.escape(start)}"):
            parse_query(text, schema)
    else:
        assert [str(rule) for rule in parse_query(text, schema).disjuncts] \
            == expected


def test_comments_and_blank_lines_ignored():
    schema = parse_schema("# header\n\nrelation R/1  # trailing\n")
    assert [r.name for r in schema.relations] == ["R"]
    db = parse_facts("# db\nendo R(a)  # a fact\n", schema)
    assert len(db.facts) == 1


def test_prob_lines_parse_exact_fractions():
    schema = parse_schema("relation R/1")
    db = parse_facts("prob 1/3 R(a)\nprob 0.25 R(b)", schema)
    assert db.get("R", ("a",)).probability == Fraction(1, 3)
    assert db.get("R", ("b",)).probability == Fraction(1, 4)
    assert db.get("R", ("a",)).provenance is Provenance.ENDOGENOUS


def test_prob_on_exogenous_relation_must_be_one():
    schema = parse_schema("relation R/1 exogenous")
    db = parse_facts("prob 1 R(a)", schema)
    assert db.get("R", ("a",)).provenance is Provenance.EXOGENOUS
    with pytest.raises(BadProbabilityError):
        parse_facts("prob 1/2 R(a)", schema)


def test_bad_probability_values():
    schema = parse_schema("relation R/1")
    with pytest.raises(BadProbabilityError):
        parse_facts("prob 3/2 R(a)", schema)
    with pytest.raises(BadProbabilityError):
        parse_facts("prob nope R(a)", schema)


def test_conflicting_fact_lines():
    schema = parse_schema("relation R/1")
    with pytest.raises(DuplicateFactError, match="line 2") as err:
        parse_facts("endo R(a)\nexo R(a)", schema)
    assert "line 1" in str(err.value)
    # identical repetitions are fine
    db = parse_facts("endo R(a)\nendo R(a)", schema)
    assert len(db.facts) == 1


def test_undeclared_relation_in_facts():
    schema = parse_schema("relation R/1")
    with pytest.raises(UnknownRelationError):
        parse_facts("endo S(a)", schema)


def test_malformed_lines_report_line_numbers():
    schema = parse_schema("relation R/1")
    with pytest.raises(SchemaSyntaxError, match="line 2"):
        parse_facts("endo R(a)\nR(b)", schema)


# every spelling of a fact line pins what the one line pattern keeps; the
# line under test is line 2
_FACT_LINES = [
    ("endo P ( a , b )", [("P", ("a", "b"), "endo", None)]),
    ("exo Z()", [("Z", (), "exo", None)]),
    ("endo P(9z, _x)", [("P", ("9z", "_x"), "endo", None)]),
    ("exo\tR(a)  # trailing comment", [("R", ("a",), "exo", None)]),
    ("endo P('a#b', 'x y')#", [("P", ("a#b", "x y"), "endo", None)]),
    ("prob 0.25 R(a)", [("R", ("a",), "endo", Fraction(1, 4))]),
    ("prob 1/3 R(a)", [("R", ("a",), "endo", Fraction(1, 3))]),
    ("prob 1 E(a)", [("E", ("a",), "exo", Fraction(1))]),
    ("", []),
    ("   # only a comment", []),
    ("endo R(a,)", SchemaSyntaxError),
    ("endo R(a b)", SchemaSyntaxError),
    ("endo R('x)", SchemaSyntaxError),
    ("endo R(a).", SchemaSyntaxError),
    ("endo R(a) extra", SchemaSyntaxError),
    ("exoR(a)", SchemaSyntaxError),
    ("prob 1/2", SchemaSyntaxError),
    ("R(b)", SchemaSyntaxError),
    ("prob nope R(a)", BadProbabilityError),
    ("prob 1/0 R(a)", BadProbabilityError),
    ("prob 3/2 R(a)", BadProbabilityError),
    ("prob 1/2 E(a)", BadProbabilityError),
    ("endo S(a)", UnknownRelationError),
    ("endo P(a)", ArityError),
    ("endo E(a)", ProvenanceError),
]


@pytest.mark.parametrize("line, expected", _FACT_LINES)
def test_fact_line_grammar(line, expected):
    schema = parse_schema("relation R/1\nrelation P/2\nrelation Z/0\n"
                          "relation E/1 exogenous")
    text = f"# line 1\n{line}\n"
    if isinstance(expected, type):
        with pytest.raises(expected, match="^line 2: "):
            parse_facts(text, schema)
    else:
        db = parse_facts(text, schema)
        assert [(f.relation.name, f.args, f.provenance.value, f.probability)
                for f in db.facts] == expected


_ATOMS = [
    ("R ( a , b )", ("R", ("a", "b"))),
    ("Z()", ("Z", ())),
    (" R(9z, _x) ", ("R", ("9z", "_x"))),
    ("R('x y', 'it\\'s', 'a#b')", ("R", ("x y", "it's", "a#b"))),
    (r"R('a\\b', 'a\'b')", ("R", ("a\\b", "a'b"))),
    ("R(a,)", None),
    ("R(a b)", None),
    ("R('x)", None),
    ("R(a).", None),
    ("R(a) extra", None),
    ("R", None),
    ("(a)", None),
    ("R('a\nb')", None),
]


@pytest.mark.parametrize("text, expected", _ATOMS)
def test_fact_references_share_the_fact_line_atom(text, expected):
    if expected is None:
        with pytest.raises(SchemaSyntaxError):
            parse_fact_reference(text)
        with pytest.raises(SchemaSyntaxError):
            parse_facts(f"endo {text}", parse_schema("relation R/1"))
    else:
        name, args = expected
        schema = parse_schema(f"relation {name}/{len(args)}")
        assert parse_fact_reference(text) == expected
        fact = parse_facts(f"endo {text}", schema).facts[0]
        assert (fact.relation.name, fact.args) == expected


def test_fact_reference_accepts_quoted_lowercase():
    assert parse_fact_reference("R(cx_0)") == ("R", ("cx_0",))
    assert parse_fact_reference("R('cx_0')") == ("R", ("cx_0",))


def test_quoted_constants_round_trip():
    schema = parse_schema("relation R/1")
    db = parse_facts("endo R('hello world')", schema)
    fact = db.facts[0]
    assert fact.args == ("hello world",)
    reparsed = parse_facts(format_database(db), schema)
    assert reparsed.facts == db.facts
    assert reparsed.facts[0].provenance == fact.provenance
    # constants built in code, with every provenance and a probability
    values = ("it's", "'", "a\\b", "\\", "x y", " lead", "lower", "mIxed")
    db = Database(schema, [
        Fact(schema["R"], (v,), list(Provenance)[i % 2],
             Fraction(1, 3) if i % 4 == 1 else None)
        for i, v in enumerate(values)])
    reparsed = parse_facts(format_database(db), schema)
    assert [(f.args, f.provenance, f.probability) for f in reparsed.facts] \
        == [(f.args, f.provenance, f.probability) for f in db.facts]
    assert len(reparsed.facts) == len(values)


def test_format_fact_spells_provenance_and_probability():
    schema = parse_schema("relation Reg/2")
    db = parse_facts("prob 1/2 Reg(Adam, OS)", schema)
    assert format_fact(db.facts[0]) == "prob 1/2 Reg(Adam, OS)"


# constants without a line break: lowercase-initial words, which fact
# lines write bare and query text quotes, and words of the characters that
# need quotes
_fact_constants = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_]*", fullmatch=True),
    st.text(st.sampled_from("ab09_ ,'\\#"), max_size=6))


@settings(max_examples=100, deadline=None)
@given(_fact_constants, st.sampled_from([None, Fraction(1, 3)]))
def test_a_fact_is_named_the_way_fact_lines_write_it(value, probability):
    """``str(fact)`` reads back through ``--fact`` and, as a fact line,
    through the fact reader, and it is the name the table, a relevance
    witness and a refusal give the fact."""
    r, s, t = (RelationSym(name, 1) for name in "RST")
    fact = Fact(r, (value,), probability=probability)
    partner = Fact(s, (value,))
    exogenous = Fact(t, (value,), Provenance.EXOGENOUS)
    schema = Schema([r, s, t])
    db = Database(schema, [fact, partner, exogenous])
    name = str(fact)
    # bare exactly when the constant is a bare word, whatever its first
    # letter
    bare = re.fullmatch(r"[A-Za-z0-9_]+", value) is not None
    assert (name == f"R({value})") is bare
    assert parse_fact_reference(name) == ("R", (value,))
    [read] = parse_facts(format_fact(fact), schema).facts
    assert (read, read.provenance, read.probability) == (
        fact, fact.provenance, fact.probability)
    table = render_table(Report("exact", "q() :- R(x).",
                                [(fact, Fraction(1, 2))]))
    assert table.splitlines()[3] == f"  {name}  endo          1/2  0.5"
    witness = relevance(db, parse_query("q() :- R(x), S(x)."), partner)
    assert witness.witness.to_json()["coalition"] == [name]
    with pytest.raises(FactNotEndogenousError) as excinfo:
        db.require_endogenous(exogenous)
    assert str(excinfo.value) == (
        f"fact {exogenous} is not an endogenous fact of the database")
    assert str(exogenous) == f"T{name[1:]}"


def test_format_fact_refuses_a_line_break():
    rel = RelationSym("R", 2)
    db = Database(Schema([rel]), [Fact(rel, ("a", "a\nb"))])
    with pytest.raises(SchemaSyntaxError,
                       match=re.escape("fact of R: constant 'a\\nb' holds "
                                       "a line break")):
        format_fact(db.facts[0])
    with pytest.raises(SchemaSyntaxError):
        format_database(db)


# ---------------------------------------------------------------------------
# property: every well-formed object prints to text that parses back equal
# ---------------------------------------------------------------------------

_names = st.sampled_from(["R", "S", "T", "U"])
_vars = st.sampled_from(["x", "y", "z"])
# some need quotes (a comment mark, a space, a quote, backslashes);
# `lower` is bare in fact files but quoted in queries
_consts = st.sampled_from(["A", "B", "c1", "a#b", "x y", "it's", "a\\",
                           "a\\'b", "lower", "9z"])


@st.composite
def rules(draw):
    n_pos = draw(st.integers(1, 3))
    atoms = []
    used_vars = set()
    arities = {}
    for i in range(n_pos):
        name = draw(_names)
        arity = arities.setdefault(name, draw(st.integers(1, 3)))
        terms = []
        for _ in range(arity):
            if draw(st.booleans()):
                v = draw(_vars)
                used_vars.add(v)
                terms.append(Var(v))
            else:
                terms.append(Const(draw(_consts)))
        atoms.append(Atom(RelationSym(name, arity), tuple(terms)))
    for _ in range(draw(st.integers(0, 2))):
        name = draw(_names)
        arity = arities.setdefault(name, draw(st.integers(1, 3)))
        terms = tuple(
            Var(draw(st.sampled_from(sorted(used_vars))))
            if used_vars and draw(st.booleans())
            else Const(draw(_consts))
            for _ in range(arity)
        )
        atoms.append(Atom(RelationSym(name, arity), terms, negated=True))
    return CQNeg(tuple(atoms))


@settings(max_examples=150, deadline=None)
@given(rules())
def test_query_round_trip(rule):
    reparsed = parse_query(format_query(rule))
    assert reparsed.disjuncts == (rule,)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_names, st.sampled_from(list(Provenance)),
                          st.tuples(_consts, _consts)),
                min_size=0, max_size=6))
def test_database_round_trip(rows):
    schema = parse_schema("relation R/2\nrelation S/2\n"
                          "relation T/2\nrelation U/2")
    facts = []
    seen = {}
    for name, prov, args in rows:
        if seen.setdefault((name, args), prov) != prov:
            continue  # keep provenance consistent per fact
        facts.append(Fact(schema[name], args, prov))
    db = Database(schema, facts)
    reparsed = parse_facts(format_database(db), schema)
    assert reparsed.facts == db.facts
    assert ([f.provenance for f in reparsed.facts]
            == [f.provenance for f in db.facts])


def test_schema_round_trip():
    text = "relation R/2 exogenous\nrelation S/0\nrelation T/3"
    schema = parse_schema(text)
    assert format_schema(schema) == text

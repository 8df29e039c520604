"""Rendering: exact rationals, fixed-precision decimals, stable JSON."""

import json
from fractions import Fraction

from shapfact.model import Fact, RelationSym
from shapfact.reporting import (Report, decimal_string, exact_json,
                                render_json, render_table)

R = RelationSym("R", 1)


def test_decimal_has_twelve_significant_digits():
    assert decimal_string(Fraction(-2, 35)) == "-0.0571428571429"
    assert decimal_string(Fraction(-3, 28)) == "-0.107142857143"
    assert decimal_string(Fraction(37, 210)) == "0.176190476190"
    assert decimal_string(Fraction(13, 42)) == "0.309523809524"
    assert decimal_string(Fraction(0)) == "0"
    assert decimal_string(Fraction(1, 4)) == "0.25"
    assert decimal_string(Fraction(1, 2772)) == "0.000360750360750"
    # exactly representable values are not padded
    assert decimal_string(Fraction(1, 8192)) == "0.0001220703125"


def test_rational_string_round_trips():
    for value in (Fraction(-2, 35), Fraction(0), Fraction(7),
                  Fraction(1, 12012)):
        assert Fraction(exact_json(value)["value"]) == value


def test_banker_rounding_at_the_boundary():
    # exact ties at the 13th significant digit round to the even neighbour
    assert decimal_string(
        Fraction(1234567890125, 10**13)) == "0.123456789012"
    assert decimal_string(
        Fraction(1234567890135, 10**13)) == "0.123456789014"


def test_json_shape_and_order():
    report = Report(
        method="exact",
        query="q() :- R(x).",
        facts=[(Fact(R, ("b",)), Fraction(1, 3)), (Fact(R, ("a",)), None)],
        classification=[{"kind": "PTimeHierarchical", "witness": None}],
    )
    payload = json.loads(render_json(report))
    assert list(payload) == ["method", "query", "facts", "classification",
                             "seed", "samples"]
    # records come back sorted by (relation, args)
    assert [f["args"] for f in payload["facts"]] == [["a"], ["b"]]
    assert payload["facts"][0]["value"] is None
    assert payload["facts"][1] == {
        "relation": "R", "args": ["b"], "provenance": "endo",
        "value": "1/3", "decimal": "0.333333333333"}


def test_json_is_byte_stable():
    report = Report(method="brute", query="q() :- R(x).",
                    facts=[(Fact(R, ("a",)), Fraction(1, 7))],
                    seed=3, samples=None)
    assert render_json(report) == render_json(report)
    assert render_json(report).endswith("\n")


def test_extra_sections_appended():
    report = Report(method="lifted", query="q() :- R(x).",
                    extra={"probability": {"value": "1/2",
                                           "decimal": "0.5"}})
    payload = json.loads(render_json(report))
    assert payload["probability"] == {"value": "1/2", "decimal": "0.5"}


def test_table_rendering_smoke():
    report = Report(
        method="exact",
        query="q() :- R(x).",
        facts=[(Fact(R, ("a",)), Fraction(-3, 28))],
        classification=[{"kind": "PTimeHierarchical", "witness": None}],
    )
    text = render_table(report)
    assert "method: exact" in text
    assert "-3/28" in text and "-0.107142857143" in text
    assert "rule 1: PTimeHierarchical" in text


def test_a_line_break_in_a_constant_stays_on_its_row():
    report = Report(method="exact", query="q() :- R(x).",
                    facts=[(Fact(R, ("a\nb",)), Fraction(1, 2)),
                           (Fact(R, ("c",)), Fraction(1, 2))])
    assert render_table(report).splitlines()[3:] == [
        "  R('a\\nb')  endo          1/2  0.5",
        "  R(c)       endo          1/2  0.5"]

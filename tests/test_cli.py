"""End-to-end command-line behaviour: method resolution, exit codes,
output stability, and the generator round-trip."""

import errno
import hashlib
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shapfact
from conftest import (DATA, Q2, RULE_SHAPES, STAFF_Q1_VALUES,
                      random_q2_instance, random_shaped_instance)
from shapfact.cli import (Invocation, build_parser, invocation_from_args,
                          main, resolve_method, run)
from shapfact.naive import DEFAULT_CAP, brute_shapley_all, eval_boolean
from shapfact.parsing import (format_database, format_query, format_schema,
                              parse_facts, parse_query, parse_schema)
from shapfact.rewriting import rewrite
from shapfact.structure import classify_query

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest itself depends on tomli before 3.11
    import tomli as tomllib

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"

SCHEMA = str(DATA / "staff_schema.txt")
SCHEMA_EXO = str(DATA / "staff_schema_exo.txt")
FACTS = str(DATA / "staff_facts.txt")
Q1_PATH = str(DATA / "q1.txt")
Q2_PATH = str(DATA / "q2.txt")


def _run(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run(Invocation(**kwargs), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _payload(**kwargs):
    code, out, err = _run(**kwargs)
    assert code == 0, err
    return json.loads(out)


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    a child interpreter imports the same shapfact as the tests do."""
    src = os.path.dirname(os.path.dirname(shapfact.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_shapley_all_reproduces_reference_values():
    payload = _payload(command="shapley", schema=SCHEMA, facts=FACTS,
                       query=Q1_PATH, all_facts=True, method="exact")
    assert payload["method"] == "exact"
    got = {(r["relation"], tuple(r["args"])): Fraction(r["value"])
           for r in payload["facts"]}
    assert got == STAFF_Q1_VALUES
    # records arrive in canonical (relation, args) order
    keys = [(r["relation"], tuple(r["args"])) for r in payload["facts"]]
    assert keys == sorted(keys)
    assert payload["classification"][0]["kind"] == "PTimeHierarchical"


def test_auto_resolves_by_structure(q1, q2, staff_db):
    v1, v2 = classify_query(q1), classify_query(q2)
    assert resolve_method(v1, staff_db, "auto", cap=20) == "exact"
    assert resolve_method(v2, staff_db, "auto", cap=20) == "brute"
    assert resolve_method(v2, staff_db, "auto", cap=3) == "approx"
    # explicit requests are honoured as-is
    assert resolve_method(v2, staff_db, "brute", cap=3) == "brute"


def test_auto_resolves_to_exo(staff_schema_exo, staff_db_exo):
    q2_exo = parse_query(Q2, staff_schema_exo)
    assert resolve_method(classify_query(q2_exo), staff_db_exo, "auto",
                          cap=20) == "exo"


def test_exo_route_matches_brute_route():
    common = dict(command="shapley", schema=SCHEMA_EXO, facts=FACTS,
                  query=Q2_PATH, fact="TA(Adam)")
    via_auto = _payload(**common)
    via_brute = _payload(method="brute", **common)
    assert via_auto["method"] == "exo"
    assert via_auto["facts"][0]["value"] == "-2/15"
    assert via_brute["facts"][0]["value"] == "-2/15"


def test_inline_query_text_is_accepted():
    payload = _payload(command="classify", schema=SCHEMA,
                       query="q() :- Stud(x), not TA(x), Reg(x, y).")
    assert payload["classification"][0]["kind"] == "PTimeHierarchical"


def test_classify_reports_witnesses():
    hard = _payload(command="classify", schema=SCHEMA, query=Q2_PATH)
    assert hard["classification"][0]["kind"] == "HardNonHierarchical"
    assert hard["classification"][0]["witness"]["atoms"]
    easy = _payload(command="classify", schema=SCHEMA_EXO, query=Q2_PATH)
    assert easy["classification"][0]["kind"] == "PTimeExoRewrite"


def test_exit_one_on_unparsable_query():
    code, out, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                          query="q() :- Stud(x", fact="TA(Adam)")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_exit_one_on_a_relation_named_not():
    # ``not not(x)`` reads, and no schema is there to declare ``not``
    code, out, err = _run(command="classify",
                          query="q() :- R(x), not not(x).")
    assert code == 1
    assert err.startswith("error: rule 1: relation name not is reserved")
    assert out == ""


def test_exit_one_on_missing_file():
    code, _, err = _run(command="classify", schema=SCHEMA,
                        query="no/such/file.txt")
    assert code == 1
    assert "no/such/file.txt" in err


def test_exit_one_on_unknown_fact():
    code, _, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                        query=Q1_PATH, fact="TA(Zed)")
    assert code == 1
    assert "TA(Zed)" in err


@pytest.mark.parametrize("method",
                         ["auto", "exact", "exo", "brute", "approx"])
@pytest.mark.parametrize("reference", ["Stud(Adam)", "TA(Nobody)"])
def test_fact_must_be_endogenous_under_every_method(method, reference,
                                                    capsys):
    # an exogenous and an absent fact meet the same check, before any engine
    with pytest.raises(SystemExit) as exited:
        main(["shapley", "--schema", SCHEMA, "--facts", FACTS,
              "--query", Q1_PATH, "--fact", reference, "--method", method])
    assert exited.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: fact {reference} is not an endogenous fact "
                   "of the database\n")


def test_exit_two_on_refused_method():
    code, out, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                          query=Q2_PATH, fact="TA(Adam)", method="exact")
    assert code == 2
    assert err.startswith("refused:")
    assert out == ""


def test_exit_two_on_obstructing_path(tmp_path):
    schema = tmp_path / "schema.txt"
    schema.write_text("relation R/2\nrelation S/2 exogenous\n"
                      "relation P/2 exogenous\nrelation T/2\n")
    facts = tmp_path / "facts.txt"
    facts.write_text("endo R(A, B)\nendo T(C, B)\nexo S(C, A)\n")
    code, _, err = _run(command="shapley", schema=str(schema),
                        facts=str(facts), method="exo", all_facts=True,
                        query="q() :- not R(x, w), S(z, x), not P(z, y), "
                              "T(y, w).")
    assert code == 2
    assert "refused:" in err


@pytest.mark.parametrize("command, method", [("shapley", "exo"),
                                             ("prob", "auto")])
@pytest.mark.parametrize("query, exogenous, route", [
    ("q() :- R(x), S(x, y), not T(y).", "", "(R(x), not T(y)) via x-y"),
    ("q() :- R(x), E(x, z), F(z, y), T(y).", "EF",
     "(R(x), T(y)) via x-z-y"),
], ids=["direct", "through-z"])
def test_path_refusal_names_the_atoms_and_the_route(tmp_path, command, method,
                                                    query, exogenous, route):
    # the message writes the witness with PathWitness.__str__
    schema = tmp_path / "schema.txt"
    schema.write_text("".join(
        f"relation {name}/{arity}{' exogenous' * (name in exogenous)}\n"
        for name, arity in [("R", 1), ("S", 2), ("T", 1), ("E", 2),
                            ("F", 2)]))
    facts = tmp_path / "facts.txt"
    facts.write_text("endo R(A)\n")
    code, out, err = _run(command=command, schema=str(schema),
                          facts=str(facts), query=query, method=method,
                          all_facts=True)
    assert (code, out) == (2, "")
    assert err == ("refused: non-hierarchical path survives the exogenous "
                   f"relations: {route}\n")


@pytest.mark.parametrize("argv, given", [
    (["classify", "--query", Q1_PATH], dict(query=Q1_PATH)),
    (["shapley", "--query", Q1_PATH, "--fact", "TA(Adam)"],
     dict(query=Q1_PATH, fact="TA(Adam)")),
    (["shapley", "--query", Q1_PATH, "--all"],
     dict(query=Q1_PATH, all_facts=True)),
    (["relevance", "--query", Q1_PATH, "--fact", "TA(Adam)"],
     dict(query=Q1_PATH, fact="TA(Adam)")),
    (["prob", "--query", Q1_PATH], dict(query=Q1_PATH)),
    (["gen-gap", "--n", "2"], dict(n=2)),
], ids=["classify", "shapley-fact", "shapley-all", "relevance", "prob",
        "gen-gap"])
def test_the_parser_holds_no_default(argv, given):
    # an option left off the command line takes Invocation's default
    namespace = build_parser().parse_args(argv)
    assert vars(namespace) == dict(command=argv[0], **given)
    assert invocation_from_args(namespace) \
        == Invocation(command=argv[0], **given)


@pytest.mark.parametrize("command",
                         ["classify", "shapley", "relevance", "prob",
                          "gen-gap"])
def test_every_command_has_help(command, capsys):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: shapfact {command} ") and err == ""


@pytest.mark.parametrize("command, method, target", [
    ("shapley", "exact", dict(all_facts=True)),
    ("shapley", "exact", dict(fact="TA(Adam)")),
    ("shapley", "exo", dict(all_facts=True)),
    ("shapley", "exo", dict(fact="TA(Adam)")),
    ("prob", "auto", {}),
], ids=["exact-all", "exact-fact", "exo-all", "exo-fact", "prob"])
def test_exit_two_on_a_union_for_single_rule_engines(command, method,
                                                     target):
    # the engines themselves refuse a union; the CLI passes it on as is
    code, out, err = _run(command=command, schema=SCHEMA, facts=FACTS,
                          query="q() :- TA(x).\nq() :- Reg(x, y).",
                          method=method, **target)
    assert code == 2
    assert out == ""
    assert err == ("refused: expected a single conjunctive rule, got a "
                   "union of 2\n")


def test_cap_option_moves_auto_to_approx():
    payload = _payload(command="shapley", schema=SCHEMA, facts=FACTS,
                       query=Q2_PATH, fact="TA(Adam)", cap=3)
    assert payload["method"] == "approx"

    args = ["shapley", "--schema", SCHEMA, "--facts", FACTS, "--query",
            Q2_PATH, "--fact", "TA(Adam)"]
    parser = build_parser()
    assert invocation_from_args(parser.parse_args(args)).cap == DEFAULT_CAP
    assert invocation_from_args(
        parser.parse_args(args + ["--cap", "3"])).cap == 3


def test_approx_echoes_plan_and_lands_close():
    payload = _payload(command="shapley", schema=SCHEMA, facts=FACTS,
                       query=Q1_PATH, fact="TA(Adam)", method="approx",
                       seed=11)
    assert payload["method"] == "approx"
    assert payload["seed"] == 11
    assert payload["samples"] == 2397
    estimate = Fraction(payload["facts"][0]["value"])
    assert abs(estimate - Fraction(-3, 28)) <= Fraction(1, 20)


@pytest.mark.parametrize("seed, digest", [
    (5, "90e8b03cb8862722282171657a52d3fe15556eb790c6e5156a008e4c5ae3c542"),
    (9, "91dcdf47b43ffc53091a34e344b76ab776f075c916ecdd0b1b57880cb8a200c2"),
])
def test_sampled_report_bytes_are_pinned(seed, digest):
    common = dict(command="shapley", schema=SCHEMA, facts=FACTS,
                  query=Q1_PATH, method="approx", seed=seed)
    code, out, err = _run(all_facts=True, **common)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    for record in json.loads(out)["facts"]:
        reference = f"{record['relation']}({', '.join(record['args'])})"
        one = _payload(fact=reference, **common)
        assert one["facts"] == [record]


# whole reports of the exact engines, the exogenous rewrite and relevance,
# in both formats: a digest that no longer matches means the report bytes
# changed
@pytest.mark.parametrize("kwargs, digest", [
    (dict(schema=SCHEMA, query=Q1_PATH, method="exact"),
     "efcc2c704adbba38a8908a0c064b36709cb79ce15e568fd035afd9719fa68187"),
    (dict(schema=SCHEMA, query=Q1_PATH, method="exact", fmt="table"),
     "47aa38e153de126b7f71fb7830bfc578f13163295bb5254297ae4c1b6ad92c88"),
    (dict(schema=SCHEMA_EXO, query=Q2_PATH, method="exo"),
     "5f7985727eb26edc4a4e2a6d67eecd28852c2988e77b8807e34fb25b16aad4a9"),
    (dict(schema=SCHEMA_EXO, query=Q2_PATH, method="exo", trace=True),
     "8a76e0bdf9c68f2c01afc83129529a152df679e702f99173894b20debf7084e3"),
], ids=["exact", "exact-table", "exo", "exo-trace"])
def test_exact_report_bytes_are_pinned(kwargs, digest):
    code, out, err = _run(command="shapley", facts=FACTS, all_facts=True,
                          **kwargs)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", [
    ("json",
     "31eb0432f6621e2985ee7b1e24bbabe3c005c0406a097c0f73944e07656de611"),
    ("table",
     "a616390e09023ebecdc113656b73d8c72052b30461fb511097c195590699c24f"),
])
def test_relevance_report_bytes_are_pinned(fmt, digest):
    # TA(Adam) is negatively relevant, so the report carries a witness
    code, out, err = _run(command="relevance", schema=SCHEMA, facts=FACTS,
                          query=Q1_PATH, fact="TA(Adam)", fmt=fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_gap_round_trip(tmp_path):
    generated = _payload(command="gen-gap", n=3, out=str(tmp_path))
    assert generated["expected_value"]["value"] == "1/140"
    assert generated["endogenous_count"] == 7
    assert sorted(generated["files"]) == ["facts", "query", "schema"]

    payload = _payload(command="shapley",
                       schema=generated["files"]["schema"],
                       facts=generated["files"]["facts"],
                       query=generated["files"]["query"],
                       fact=generated["fact"])
    # the family query self-joins, so auto falls through to enumeration
    assert payload["method"] == "brute"
    assert payload["facts"][0]["value"] == "1/140"


def test_gen_gap_refuses_size_zero(tmp_path, capsys):
    out = tmp_path / "family"
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-gap", "--n", "0", "--out", str(out)])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.startswith("error: n must be at least 1")
    assert not out.exists()


def test_relevance_command_reports_witness():
    payload = _payload(command="relevance", schema=SCHEMA, facts=FACTS,
                       query=Q1_PATH, fact="TA(Adam)")
    verdict = payload["relevance"]
    assert verdict["relevant"] is True
    assert verdict["neg_relevant"] is True
    assert verdict["pos_relevant"] is False
    assert verdict["witness"]["side"] == "negative"
    assert isinstance(verdict["witness"]["coalition"], list)

    silent = _payload(command="relevance", schema=SCHEMA, facts=FACTS,
                      query=Q1_PATH, fact="TA(David)")
    assert silent["relevance"] == {"relevant": False, "pos_relevant": False,
                                   "neg_relevant": False, "witness": None}


def test_prob_command_both_methods(tmp_path):
    schema = tmp_path / "schema.txt"
    schema.write_text("relation R/1\n")
    facts = tmp_path / "facts.txt"
    facts.write_text("prob 1/2 R(A)\nprob 1/2 R(B)\n")
    common = dict(command="prob", schema=str(schema), facts=str(facts),
                  query="q() :- R(x).")
    lifted = _payload(**common)
    assert lifted["method"] == "lifted"
    assert lifted["probability"] == {"value": "3/4", "decimal": "0.75"}
    brute = _payload(method="brute", **common)
    assert brute["method"] == "brute"
    assert brute["probability"]["value"] == "3/4"


def test_trace_flag_documents_the_rewrite():
    payload = _payload(command="shapley", schema=SCHEMA_EXO, facts=FACTS,
                       query=Q2_PATH, fact="TA(Adam)", method="exo",
                       trace=True)
    assert isinstance(payload["trace"], list)
    assert payload["trace"]
    assert any("[filter]" in line for line in payload["trace"])


@pytest.mark.parametrize("method", ["exact", "exo"])
def test_single_fact_reports_match_all(method, tmp_path):
    # every endogenous fact's --fact record equals its --all record; under
    # exo that includes the facts a filter step drops, and the trace is
    # the same either way
    rng = random.Random(17003)
    shapes = sorted(RULE_SHAPES)
    nonzero = dropped = 0
    for i in range(28):
        if method == "exact":
            db, rule = random_shaped_instance(rng, shapes[i % len(shapes)])
        else:
            db, rule = random_q2_instance(rng)
        (tmp_path / "schema.txt").write_text(format_schema(db.schema))
        (tmp_path / "facts.txt").write_text(format_database(db))
        common = dict(command="shapley", schema=str(tmp_path / "schema.txt"),
                      facts=str(tmp_path / "facts.txt"),
                      query=format_query(rule), method=method, trace=True)
        every = _payload(all_facts=True, **common)
        records = dict(zip(db.endogenous, every["facts"]))
        for fact in db.endogenous:
            one = _payload(fact=str(fact), **common)
            assert one["facts"] == [records[fact]]
            assert one.get("trace") == every.get("trace")
        nonzero += any(r["value"] != "0" for r in every["facts"])
        if method == "exo":
            kept = rewrite(db, rule)[0]
            dropped += sum(fact not in kept for fact in db.endogenous)
    # 15 of the 28 draws have a nonzero value under either method, and
    # the exo draws drop 56 facts
    assert nonzero >= 13
    assert method == "exact" or dropped >= 50


def test_table_format_smoke():
    code, out, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                          query=Q1_PATH, all_facts=True, method="exact",
                          fmt="table")
    assert code == 0, err
    assert out.startswith("method: exact\n")
    assert "TA(Adam)" in out
    assert "-3/28" in out
    assert "rule 1: PTimeHierarchical" in out


def test_the_table_names_a_fact_as_fact_lines_and_fact_do(tmp_path):
    # the constant ``a, b`` is one argument: written bare, it would read
    # as two
    (tmp_path / "schema.txt").write_text("relation R/1\n")
    (tmp_path / "facts.txt").write_text("endo R('a, b')\nendo R(c)\n")
    common = dict(command="shapley", schema=str(tmp_path / "schema.txt"),
                  facts=str(tmp_path / "facts.txt"), query="q() :- R(x).")
    code, out, err = _run(all_facts=True, fmt="table", **common)
    assert code == 0, err
    assert out.splitlines()[3:5] == [
        "  R('a, b')  endo          1/2  0.5",
        "  R(c)       endo          1/2  0.5"]
    payload = _payload(fact="R('a, b')", **common)
    assert [(f["relation"], f["args"], f["value"])
            for f in payload["facts"]] == [("R", ["a, b"], "1/2")]


def test_output_is_byte_stable():
    kwargs = dict(command="shapley", schema=SCHEMA, facts=FACTS,
                  query=Q1_PATH, all_facts=True, method="exact")
    first = _run(**kwargs)
    second = _run(**kwargs)
    assert first == second

    sampled = dict(command="shapley", schema=SCHEMA, facts=FACTS,
                   query=Q1_PATH, fact="TA(Ben)", method="approx", seed=5)
    assert _run(**sampled) == _run(**sampled)


def test_parser_maps_flags_onto_invocation(capsys):
    namespace = build_parser().parse_args(
        ["shapley", "--query", Q1_PATH, "--schema", SCHEMA, "--facts",
         FACTS, "--all", "--method", "approx", "--seed", "9",
         "--format", "table"])
    inv = invocation_from_args(namespace)
    assert inv.command == "shapley"
    assert inv.all_facts is True
    assert inv.fact is None
    assert inv.method == "approx"
    assert inv.seed == 9
    assert inv.fmt == "table"
    # the estimate depends on --seed alone; --workers no longer exists
    with pytest.raises(SystemExit) as excinfo:
        main(["shapley", "--query", Q1_PATH, "--schema", SCHEMA, "--facts",
              FACTS, "--all", "--method", "approx", "--workers", "4"])
    assert excinfo.value.code == 1
    assert "--workers" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    # argparse would exit 2 on its own; that status is reserved for
    # refused computations, so usage problems are remapped to 1
    with pytest.raises(SystemExit) as excinfo:
        main(["shapley", "--fact", "TA(Adam)"])
    assert excinfo.value.code == 1
    assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("command, target",
                         [("shapley", ["--all"]), ("prob", [])])
def test_negative_cap_is_malformed_input(command, target, capsys):
    # a cap counts facts; -1 is no count, not a cap that refuses everything
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--query", Q1_PATH, "--schema", SCHEMA, "--facts",
              FACTS, "--method", "brute", "--cap", "-1", *target])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == \
        "error: cap must be a count of at least 0, got -1\n"


@pytest.mark.parametrize("command, target",
                         [("shapley", {"all_facts": True}), ("prob", {}),
                          ("classify", {})])
def test_run_refuses_a_negative_cap(command, target):
    # the library path is checked by run itself, not by argparse
    code, out, err = _run(command=command, schema=SCHEMA, facts=FACTS,
                          query=Q1_PATH, method="brute", cap=-1, **target)
    assert (code, out) == (1, "")
    assert err == "error: cap must be a count of at least 0, got -1\n"


def test_run_refuses_an_unknown_format():
    code, out, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                          query=Q1_PATH, all_facts=True, fmt="xml")
    assert (code, out) == (1, "")
    assert err == "error: format must be one of json, table, got 'xml'\n"


# every refusal that argparse makes first on the command line, as run
# makes it for a caller that builds the invocation itself; the inputs are
# checked in the order schema, query, facts
@pytest.mark.parametrize("kwargs, message", [
    (dict(command="shapley", schema=SCHEMA, facts=FACTS, all_facts=True),
     "--query is required"),
    (dict(command="classify", schema=SCHEMA), "--query is required"),
    (dict(command="shapley", all_facts=True), "--query is required"),
    (dict(command="shapley", schema="no/such/schema.txt", all_facts=True),
     "cannot read schema file 'no/such/schema.txt': [Errno 2] No such file "
     "or directory: 'no/such/schema.txt'"),
    (dict(command="shapley", facts=FACTS, query=Q1_PATH, all_facts=True),
     "--schema is required when --facts is given"),
    (dict(command="shapley", schema=SCHEMA, query=Q1_PATH, all_facts=True),
     "--facts is required"),
    (dict(command="prob", schema=SCHEMA, query=Q1_PATH),
     "--facts is required"),
    (dict(command="shapley", schema=SCHEMA, facts=FACTS, query=Q1_PATH,
          all_facts=True, fact="TA(Adam)"),
     "--fact and --all are mutually exclusive"),
    (dict(command="shapley", schema=SCHEMA, facts=FACTS, query=Q1_PATH),
     "one of --fact or --all is required"),
    (dict(command="shapley", schema=SCHEMA, facts=FACTS, query=Q1_PATH,
          all_facts=True, method="bogus"),
     "unknown method 'bogus'"),
    (dict(command="prob", schema=SCHEMA, facts=FACTS, query=Q1_PATH,
          method="bogus"),
     "unknown probability method 'bogus'; expected auto, lifted or brute"),
    (dict(command="relevance", schema=SCHEMA, facts=FACTS, query=Q1_PATH),
     "--fact is required"),
    (dict(command="nope"), "unknown command 'nope'"),
], ids=["no-query", "classify-no-query", "nothing", "schema-first",
        "facts-without-schema", "no-facts", "prob-no-facts", "fact-and-all",
        "no-target", "shapley-bogus", "prob-bogus", "relevance-no-fact",
        "unknown-command"])
def test_run_refuses_what_the_command_line_refuses(kwargs, message):
    code, out, err = _run(**kwargs)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_gen_gap_refuses_an_unwritable_directory(tmp_path):
    # a file where the directory should go
    out = tmp_path / "taken"
    out.write_text("")
    code, stdout, err = _run(command="gen-gap", n=2, out=str(out))
    assert (code, stdout) == (1, "")
    assert err == (f"error: cannot write to {str(out)!r}: [Errno "
                   f"{errno.EEXIST}] {os.strerror(errno.EEXIST)}: "
                   f"{str(out)!r}\n")


@pytest.mark.parametrize("method", ["brute", "auto"])
def test_shapley_all_by_enumeration(method, tmp_path):
    schema_text = "relation R/1\nrelation S/2\nrelation T/1\n"
    facts_text = ("endo R(a)\nendo R(b)\nendo S(a, c)\nendo S(b, c)\n"
                  "exo S(b, d)\nendo T(c)\nendo T(d)\n")
    query = "q() :- R(x), S(x, y), not T(y)."
    (tmp_path / "schema.txt").write_text(schema_text)
    (tmp_path / "facts.txt").write_text(facts_text)
    payload = _payload(command="shapley", schema=str(tmp_path / "schema.txt"),
                       facts=str(tmp_path / "facts.txt"), query=query,
                       all_facts=True, method=method)
    # the rule is not hierarchical, and 6 endogenous facts are under the cap
    assert payload["method"] == "brute"
    schema = parse_schema(schema_text)
    db = parse_facts(facts_text, schema)
    expected = brute_shapley_all(db, parse_query(query, schema))
    assert [(r["relation"], tuple(r["args"]), Fraction(r["value"]))
            for r in payload["facts"]] == [
        (f.relation.name, f.args, v) for f, v in expected.items()]
    assert sum(v != 0 for v in expected.values()) == 6


@pytest.mark.parametrize("schema, query, line", [
    (None, "q() :- R(x), S(x, y), not T(y).",
     "  rule 1: HardNonHierarchical  [witness: R(x), S(x, y), not T(y)]"),
    ("relation R/1\nrelation S/2 exogenous\nrelation T/1\n",
     "q() :- R(x), S(x, y), T(y), S(y, x).",
     "  rule 1: HardNonHierPath  [witness: R(x), T(y); path x-y]"),
], ids=["triplet", "path"])
def test_table_renders_the_witness(schema, query, line, tmp_path):
    if schema is not None:
        (tmp_path / "schema.txt").write_text(schema)
        schema = str(tmp_path / "schema.txt")
    code, out, err = _run(command="classify", schema=schema, query=query,
                          fmt="table")
    assert code == 0, err
    assert out.splitlines()[-1] == line


def test_table_ends_a_sampled_report_with_its_plan():
    code, out, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                          query=Q1_PATH, fact="TA(Adam)", method="approx",
                          fmt="table")
    assert code == 0, err
    assert out.endswith("\n\nsamples: 2397  seed: 0\n")


def test_classify_explains_a_self_join_without_a_path():
    # with Stud and Course exogenous, Q2 is rewritable; a second Reg atom
    # keeps the path away but repeats a relation
    query = Q2.rstrip(".") + ", Reg(x, z)."
    payload = _payload(command="classify", schema=SCHEMA_EXO, query=query)
    assert payload["classification"] == [{
        "kind": "UnknownSelfJoin", "witness": None,
        "detail": "no non-hierarchical path but not self-join-free"}]


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_run_looks_up_its_renderer_when_called(fmt, monkeypatch):
    # a traced benchmark run measures rendering by patching these names
    monkeypatch.setattr(shapfact.cli, f"render_{fmt}", lambda report: "X")
    code, out, _ = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                        query=Q1_PATH, all_facts=True, fmt=fmt)
    assert (code, out) == (0, "X")


def test_epsilon_too_small_to_budget_is_malformed_input(capsys):
    message = ("error: epsilon 1e-300 and delta 0.1 give no finite sample "
               "budget\n")
    code, out, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                          query=Q1_PATH, all_facts=True, method="approx",
                          epsilon=1e-300)
    assert (code, out, err) == (1, "", message)
    with pytest.raises(SystemExit) as excinfo:
        main(["shapley", "--query", Q1_PATH, "--schema", SCHEMA, "--facts",
              FACTS, "--all", "--method", "approx", "--epsilon", "1e-300"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == message


def test_sample_budget_over_the_key_cap_is_refused():
    # refused before the first draw: drawing these keys would take hours
    code, out, err = _run(command="shapley", schema=SCHEMA, facts=FACTS,
                          query=Q1_PATH, all_facts=True, method="approx",
                          epsilon=1e-5)
    assert (code, out) == (2, "")
    assert err == ("refused: 59914645472 sampled orders of 8 endogenous "
                   "facts would draw 479317163776 arrival keys (cap "
                   "1000000000)\n")


def test_console_script_is_installed():
    # Run the declared entry point the way pip's generated wrapper does, so
    # the check holds on an uninstalled checkout; where an install put a
    # ``shapfact`` command on PATH, run that as well.
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["shapfact"]
    module, func = target.split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'shapfact'; sys.exit({func}())")
    commands = [([sys.executable, "-c", wrapper], _src_env())]
    installed = shutil.which("shapfact")
    if installed:
        commands.append(([installed], None))
    for command, env in commands:
        result = subprocess.run(
            command + ["classify", "--schema", SCHEMA, "--query", Q1_PATH],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["classification"][0]["kind"] == "PTimeHierarchical"


def test_exact_commands_do_not_import_numpy():
    # numpy is needed only for sampling; the other commands skip its import
    script = (
        "import io, sys\n"
        "from shapfact.cli import Invocation, run\n"
        f"code = run(Invocation(command='shapley', schema={SCHEMA!r}, "
        f"facts={FACTS!r}, query={Q1_PATH!r}, all_facts=True, "
        "method='exact'), stdout=io.StringIO())\n"
        "assert code == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, env=_src_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def _readme_quick_start(tmp_path):
    """The quick start's script and output block, with the files its
    script writes written into ``tmp_path``."""
    section = README.read_text().split("## Quick start\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    script, expected = re.findall(r"^```(?:sh)?\n(.*?)^```$", section,
                                  re.DOTALL | re.MULTILINE)
    for name, body in re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$",
                                 script, re.DOTALL | re.MULTILINE):
        (tmp_path / name).write_text(body)
    return script, expected


def test_readme_quick_start_prints_its_output_block(tmp_path, monkeypatch,
                                                     capsys):
    """The README's quick start, run as written, prints the output block
    that follows it, byte for byte."""
    script, expected = _readme_quick_start(tmp_path)
    command = shlex.split(re.search(r"^shapfact .*", script.replace(
        "\\\n", ""), re.DOTALL | re.MULTILINE)[0])
    assert command[-2:] == ["--format", "table"]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(command[1:])
    assert exited.value.code == 0
    assert capsys.readouterr().out == expected


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch):
    """The README's library block, run beside the quick start's files,
    gives the quick start's values and a relevance witness that replays."""
    _, expected = _readme_quick_start(tmp_path)
    values = {fact: Fraction(value) for fact, value in re.findall(
        r"^  (\S.*?\))\s+endo\s+(\S+)", expected, re.MULTILINE)}
    assert len(values) == 3
    section = README.read_text().split("## Library use\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section,
                      re.DOTALL | re.MULTILINE)[1]
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(block, scope)
    assert {str(f): v for f, v in scope["values"].items()} == values

    db, query, fact = scope["db"], scope["query"], scope["fact"]
    witness = scope["relevance"](db, query, fact).witness
    world = db.exogenous + witness.coalition
    holds = [eval_boolean(w, query) for w in (world, world + (fact,))]
    assert holds == ([False, True] if witness.side == "positive"
                     else [True, False])

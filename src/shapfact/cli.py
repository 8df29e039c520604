"""Command-line front end.

Commands
--------
classify    place each rule of a query in the tractability landscape
shapley     attribute a query's truth value to endogenous facts
relevance   decide whether a fact can affect the query at all
prob        evaluate query probability over independent uncertain facts
gen-gap     emit a ready-to-run instance family with known tiny values

Exit codes: 0 success, 1 malformed input, 2 refused computation (the
requested method does not apply, or a cap would be exceeded).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import approx, exact, naive, prob, rewriting
from .relevance import relevance as compute_relevance
from .errors import InputError, RefusedError
from .model import Database, Fact, Query, RelationSym
from .parsing import (format_atom, format_database, format_query,
                      format_schema, parse_fact_reference, parse_facts,
                      parse_query, parse_schema)
from .reporting import (Report, decimal_string, rational_string, render_json,
                        render_table)
from .structure import Verdict, VerdictKind, classify_query

DEFAULT_EPSILON = 0.05
DEFAULT_DELTA = 0.1


@dataclass
class Invocation:
    """A fully parsed command line, decoupled from argparse for testing."""

    command: str
    schema: Optional[str] = None
    facts: Optional[str] = None
    query: Optional[str] = None
    fact: Optional[str] = None
    all_facts: bool = False
    method: str = "auto"
    epsilon: float = DEFAULT_EPSILON
    delta: float = DEFAULT_DELTA
    seed: int = 0
    cap: int = naive.DEFAULT_CAP
    fmt: str = "json"
    trace: bool = False
    n: int = 1
    out: str = "."


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    refused computations, so usage problems are re-raised as input errors
    (exit 1).  An option left off the command line stays out of the
    namespace, so :class:`Invocation` holds the only defaults."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message: str):  # noqa: A003 - argparse API
        raise InputError(f"{self.prog}: {message}")


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc}") from exc


def _load(inv: Invocation, facts: bool = True
          ) -> tuple[Query, Optional[Database]]:
    """The query that ``inv`` names and, unless ``facts`` is false, its
    database; the schema is read first, then the query, then the facts."""
    schema = (None if inv.schema is None
              else parse_schema(_read_text(inv.schema, "schema")))
    if inv.query is None:
        raise InputError("--query is required")
    text = inv.query
    if ":-" not in text:  # a path, not inline rule text
        text = _read_text(text, "query")
    query = parse_query(text, schema)
    if not facts:
        return query, None
    if inv.facts is None:
        raise InputError("--facts is required")
    if schema is None:
        raise InputError("--schema is required when --facts is given")
    return query, parse_facts(_read_text(inv.facts, "facts"), schema)


def _lookup_fact(db: Database, reference: str) -> Fact:
    """The endogenous fact that ``reference`` names; an absent or exogenous
    fact is refused with the engines' own message."""
    name, args = parse_fact_reference(reference)
    return db.require_endogenous(Fact(RelationSym(name, len(args)), args))


def resolve_method(verdicts: Sequence[Verdict], db: Database,
                   requested: str, cap: int) -> str:
    """Map ``auto`` to the cheapest applicable method, given the query's
    verdicts (:func:`classify_query`, one per disjunct).

    Single tractable rules get the dedicated engines; everything else is
    enumerated exactly while small and sampled beyond the cap.  ``auto``
    never falls back to enumeration when a polynomial engine applies.
    """
    if requested != "auto":
        return requested
    if len(verdicts) == 1:
        kind = verdicts[0].kind
        if kind is VerdictKind.PTIME_HIERARCHICAL:
            return "exact"
        if kind is VerdictKind.PTIME_EXO_REWRITE:
            return "exo"
    return "brute" if db.n_endogenous <= cap else "approx"


def _target_facts(inv: Invocation, db: Database) -> list[Fact]:
    if inv.all_facts:
        if inv.fact is not None:
            raise InputError("--fact and --all are mutually exclusive")
        return list(db.endogenous)
    if inv.fact is None:
        raise InputError("one of --fact or --all is required")
    return [_lookup_fact(db, inv.fact)]


def _cmd_classify(inv: Invocation) -> Report:
    query, _ = _load(inv, facts=False)
    verdicts = classify_query(query)
    return Report(method="classify", query=format_query(query),
                  classification=[v.to_json() for v in verdicts])


def _cmd_shapley(inv: Invocation) -> Report:
    query, db = _load(inv)
    verdicts = classify_query(query)
    method = resolve_method(verdicts, db, inv.method, inv.cap)
    targets = _target_facts(inv, db)

    seed: Optional[int] = None
    samples: Optional[int] = None
    extra: dict = {}
    # a single target is valued along its own path of the reverse pass
    if method == "exact":
        values = (exact.shapley_exact_all(db, query) if inv.all_facts
                  else {f: exact.shapley_exact(db, query, f) for f in targets})
    elif method == "exo":
        values = (rewriting.shapley_exo_all(db, query) if inv.all_facts
                  else {f: rewriting.shapley_exo(db, query, f)
                        for f in targets})
        if inv.trace:
            extra["trace"] = (rewriting.rewrite(db, query)[2]
                              .describe().splitlines())
    elif method == "brute":
        if inv.all_facts:
            values = naive.brute_shapley_all(db, query, cap=inv.cap)
        else:
            values = {f: naive.brute_shapley(db, query, f, cap=inv.cap)
                      for f in targets}
    elif method == "approx":
        plan = approx.make_plan(inv.epsilon, inv.delta, seed=inv.seed)
        values, plan = approx.shapley_additive_fpras(db, query, plan)
        seed, samples = plan.seed, plan.samples
    else:
        raise InputError(f"unknown method {method!r}")

    return Report(method=method, query=format_query(query),
                  facts=[(f, values[f]) for f in targets],
                  classification=[v.to_json() for v in verdicts],
                  seed=seed, samples=samples,
                  extra=extra)


def _cmd_relevance(inv: Invocation) -> Report:
    query, db = _load(inv)
    if inv.fact is None:
        raise InputError("--fact is required")
    fact = _lookup_fact(db, inv.fact)
    result = compute_relevance(db, query, fact)
    extra = {"relevance": {
        "relevant": result.relevant,
        "pos_relevant": result.pos_relevant,
        "neg_relevant": result.neg_relevant,
        "witness": result.witness and result.witness.to_json(),
    }}
    return Report(method="relevance", query=format_query(query),
                  facts=[(fact, None)], extra=extra)


def _cmd_prob(inv: Invocation) -> Report:
    query, db = _load(inv)
    if inv.method == "brute":
        method = "brute"
        answer = prob.brute_prob(db, query, cap=inv.cap)
    elif inv.method in ("auto", "lifted"):
        method = "lifted"
        answer = prob.prob_eval(db, query)
    else:
        raise InputError(f"unknown probability method {inv.method!r}; "
                         "expected auto, lifted or brute")
    extra = {"probability": {"value": rational_string(answer),
                             "decimal": decimal_string(answer)}}
    return Report(method=method, query=format_query(query), extra=extra)


def _cmd_gen_gap(inv: Invocation) -> Report:
    instance = naive.gen_gap_instance(inv.n)
    out = Path(inv.out)
    texts = {"schema": format_schema(instance.db.schema),
             "facts": format_database(instance.db),
             "query": format_query(instance.query) + "\n"}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for kind, text in texts.items():
            (out / f"{kind}.txt").write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write to {inv.out!r}: {exc}") from exc
    value = instance.expected_value
    extra = {
        "n": instance.n,
        "files": {kind: str(out / f"{kind}.txt") for kind in texts},
        "fact": format_atom(instance.fact),
        "endogenous_count": instance.db.n_endogenous,
        "expected_value": {"value": rational_string(value),
                           "decimal": decimal_string(value)},
    }
    return Report(method="gen-gap", query=format_query(instance.query),
                  facts=[(instance.fact, None)], extra=extra)


_COMMANDS = {
    "classify": _cmd_classify,
    "shapley": _cmd_shapley,
    "relevance": _cmd_relevance,
    "prob": _cmd_prob,
    "gen-gap": _cmd_gen_gap,
}

_FORMATS = ("json", "table")


def run(inv: Invocation, stdout=None, stderr=None) -> int:
    """Execute one invocation; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        handler = _COMMANDS.get(inv.command)
        if handler is None:
            raise InputError(f"unknown command {inv.command!r}")
        # a cap counts facts, so -1 is malformed, not a cap refusing all
        if inv.cap < 0:
            raise InputError(f"cap must be a count of at least 0, "
                             f"got {inv.cap}")
        if inv.fmt not in _FORMATS:
            raise InputError(f"format must be one of "
                             f"{', '.join(_FORMATS)}, got {inv.fmt!r}")
        report = handler(inv)
    except RefusedError as exc:
        print(f"refused: {exc}", file=stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    # the renderers are looked up when called, so that a patched
    # ``cli.render_json`` or ``cli.render_table`` takes effect
    stdout.write(render_json(report) if inv.fmt == "json"
                 else render_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shapfact",
                     description="Attribute boolean query answers to "
                                 "database facts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, facts=True):
        p.add_argument("--query", required=True,
                       help="rule file, or inline rule text containing ':-'")
        p.add_argument("--schema", help="relation declarations file")
        if facts:
            p.add_argument("--facts", help="database file")
        p.add_argument("--format", dest="fmt", choices=_FORMATS)

    p = sub.add_parser("classify", help="tractability analysis of a query")
    add_io(p, facts=False)

    p = sub.add_parser("shapley", help="attribution values for facts")
    add_io(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--fact", help="one fact, e.g. 'TA(Adam)'")
    target.add_argument("--all", dest="all_facts", action="store_true",
                        help="every endogenous fact")
    p.add_argument("--method",
                   choices=("auto", "exact", "exo", "brute", "approx"))
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int, help=f"endogenous-fact limit for "
                   f"enumeration (default {naive.DEFAULT_CAP})")
    p.add_argument("--trace", action="store_true",
                   help="include the rewrite steps in the output")

    p = sub.add_parser("relevance", help="can this fact matter at all?")
    add_io(p)
    p.add_argument("--fact", required=True)

    p = sub.add_parser("prob", help="query probability over uncertain facts")
    add_io(p)
    p.add_argument("--method", choices=("auto", "lifted", "brute"))
    p.add_argument("--cap", type=int, help=f"uncertain-fact limit for "
                   f"--method brute (default {naive.DEFAULT_CAP})")

    p = sub.add_parser("gen-gap",
                       help="emit a family instance whose attribution "
                            "values shrink super-exponentially")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", dest="fmt", choices=_FORMATS)

    return parser


def invocation_from_args(namespace: argparse.Namespace) -> Invocation:
    return Invocation(**vars(namespace))


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
        code = run(invocation_from_args(namespace))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

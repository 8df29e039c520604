"""Correctness gate, run after the timed region.

Each op's report is checked against what shapfact's own oracles say about
the generated input:

* exact, exo and brute ``--all`` reports satisfy efficiency: the values sum
  to q(D) - q(exogenous facts), evaluated with ``eval_boolean``;
* on instances within :data:`ORACLE_CAP` endogenous facts, the values equal
  ``brute_shapley_all`` and lifted ``prob`` equals ``brute_prob``;
* ``--fact`` values equal the same fact's value in an exact ``--all`` report;
* relevance verdicts replay their witness, and match ``brute_relevance``
  within the cap;
* sampled reports are checked for shape, the echoed seed and sample count,
  and values in [-1, 1]; their error against a known truth (brute values, or
  the gap family's closed form) is recorded, not gated.

Reports from exact methods on the seed-0 inputs must also hash to the values
in ``reference_sha256.json``, recorded by ``record_reference.py`` at the
commit the benchmark was defined on: their bytes are promised to be stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from pathlib import Path

from shapfact import (brute_prob, brute_relevance, brute_shapley_all,
                      eval_boolean, make_plan, parse_facts, parse_query,
                      parse_schema)
from shapfact.cli import DEFAULT_DELTA, DEFAULT_EPSILON

ORACLE_CAP = 14
HASHED_METHODS = {"exact", "exo", "brute", "lifted", "relevance", "classify"}
REFERENCE_FILE = Path(__file__).with_name("reference_sha256.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Instance:
    db: object
    query: object
    by_text: dict = field(default_factory=dict)  # "R(a, b)" -> Fact
    _brute: dict | None = None

    @property
    def n(self) -> int:
        return self.db.n_endogenous

    def brute_values(self) -> dict:
        if self._brute is None:
            self._brute = {_key(f): v for f, v in
                           brute_shapley_all(self.db, self.query).items()}
        return self._brute

    def truth_gain(self) -> int:
        return (int(eval_boolean(self.db.facts, self.query))
                - int(eval_boolean(self.db.exogenous, self.query)))


def _key(fact) -> tuple:
    return (fact.relation.name, tuple(fact.args))


def load_instance(directory: Path) -> Instance:
    schema = parse_schema((directory / "schema.txt").read_text())
    db = parse_facts((directory / "facts.txt").read_text(), schema)
    query = parse_query((directory / "query.txt").read_text(), schema)
    return Instance(db, query, {str(f): f for f in db.facts})


def _values(report: dict) -> dict:
    return {(r["relation"], tuple(r["args"])): Fraction(r["value"])
            for r in report["facts"]}


def gap_value(n: int) -> Fraction:
    """The gap family's closed form: n!^2 / (2n+1)!."""
    return Fraction(factorial(n) ** 2, factorial(2 * n + 1))


def _argv_value(argv, flag, default):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


class Gate:
    """Checks the reports of one workload's op list; collects problems and
    the sampling error against known truths."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._instances: dict[str, Instance] = {}
        self.approx_errors: list[float] = []

    def instance(self, name: str) -> Instance:
        if name not in self._instances:
            self._instances[name] = load_instance(self.workdir / name)
        return self._instances[name]

    def gap_truth(self, name: str) -> tuple[tuple, Fraction]:
        """The gap instance's distinguished fact and its value, from the
        gen-gap report written at set-up."""
        report = json.loads((self.workdir / name / "gen-gap.json").read_text())
        fact = report["facts"][0]
        return (fact["relation"], tuple(fact["args"])), gap_value(report["n"])

    def check(self, ops, outputs) -> list[list[str]]:
        """Problems per op; ``outputs`` holds (exit code, stdout) per op."""
        problems: list[list[str]] = []
        earlier: list[tuple] = []  # (op, report or None) before this op
        for op, (code, text) in zip(ops, outputs):
            found: list[str] = []
            report = None
            if code != 0:
                found.append(f"exit code {code}")
            else:
                try:
                    report = json.loads(text)
                    found += getattr(self, f"_check_{op.kind}")(op, report,
                                                                earlier)
                except (ValueError, KeyError, TypeError,
                        AssertionError) as exc:
                    found.append(f"{type(exc).__name__}: {exc}")
            earlier.append((op, report))
            problems.append(found)
        return problems

    # -- per kind ------------------------------------------------------------

    def _check_method(self, op, report) -> list[str]:
        if op.expect and report["method"] != op.expect:
            return [f"method {report['method']}, expected {op.expect}"]
        return []

    def _check_shapley_all(self, op, report, _earlier) -> list[str]:
        found = self._check_method(op, report)
        inst = self.instance(op.instance)
        values = _values(report)
        if set(values) != {_key(f) for f in inst.db.endogenous}:
            return found + ["report does not list every endogenous fact"]
        method = report["method"]
        small = inst.n <= ORACLE_CAP
        if method in ("exact", "exo", "brute"):
            gain = inst.truth_gain()
            if sum(values.values()) != gain:
                found.append(f"efficiency: sum {sum(values.values())} != "
                             f"q(D) - q(exo) = {gain}")
            if small and values != inst.brute_values():
                found.append("values differ from brute_shapley_all")
        elif method == "approx":
            found += self._check_sampled(op, report, values)
            truth = dict(inst.brute_values()) if small else {}
            if (self.workdir / op.instance / "gen-gap.json").exists():
                key, value = self.gap_truth(op.instance)
                truth[key] = value
            self.approx_errors += [float(abs(values[k] - v))
                                   for k, v in truth.items()]
        else:
            found.append(f"unexpected method {method}")
        return found

    def _check_sampled(self, op, report, values) -> list[str]:
        found = []
        seed = int(_argv_value(op.argv, "--seed", 0))
        plan = make_plan(float(_argv_value(op.argv, "--epsilon",
                                           DEFAULT_EPSILON)),
                         float(_argv_value(op.argv, "--delta", DEFAULT_DELTA)),
                         seed=seed)
        if report["seed"] != seed:
            found.append(f"echoed seed {report['seed']}, requested {seed}")
        if report["samples"] != plan.samples:
            found.append(f"echoed {report['samples']} samples, plan has "
                         f"{plan.samples}")
        if any(not -1 <= v <= 1 for v in values.values()):
            found.append("sampled value outside [-1, 1]")
        return found

    def _check_shapley_fact(self, op, report, earlier) -> list[str]:
        found = self._check_method(op, report)
        values = _values(report)
        if len(values) != 1:
            return found + [f"{len(values)} records for one --fact"]
        (key, value), = values.items()
        for other_op, other in earlier:
            if (other is not None and other_op.kind == "shapley_all"
                    and other_op.instance == op.instance
                    and other["method"] == report["method"]):
                if _values(other).get(key) != value:
                    found.append(f"--fact value {value} differs from the "
                                 f"--all report")
                return found
        return found + ["no --all report of the instance to compare with"]

    def _check_prob(self, op, report, _earlier) -> list[str]:
        found = self._check_method(op, report)
        inst = self.instance(op.instance)
        value = Fraction(report["probability"]["value"])
        if not 0 <= value <= 1:
            found.append(f"probability {value} outside [0, 1]")
        uncertain = sum(1 for f in inst.db.facts
                        if f.probability is not None and 0 < f.probability < 1)
        if uncertain <= ORACLE_CAP and value != brute_prob(inst.db,
                                                           inst.query):
            found.append("lifted probability differs from brute_prob")
        return found

    def _check_relevance(self, op, report, _earlier) -> list[str]:
        found = []
        inst = self.instance(op.instance)
        verdict = report["relevance"]
        fact = inst.by_text[_argv_value(op.argv, "--fact", None)]
        if verdict["relevant"] != (verdict["pos_relevant"]
                                   or verdict["neg_relevant"]):
            found.append("relevant is not pos_relevant or neg_relevant")
        witness = verdict["witness"]
        if verdict["relevant"] and witness is None:
            found.append("relevant without a witness")
        if witness is not None:
            world = list(inst.db.exogenous) + [inst.by_text[t] for t in
                                               witness["coalition"]]
            before = eval_boolean(world, inst.query)
            after = eval_boolean(world + [fact], inst.query)
            flip = (not before and after) if witness["side"] == "positive" \
                else (before and not after)
            if not flip:
                found.append("witness does not replay")
        if inst.n <= ORACLE_CAP:
            truth = brute_relevance(inst.db, inst.query, fact)
            if (verdict["pos_relevant"], verdict["neg_relevant"]) != (
                    truth.pos_relevant, truth.neg_relevant):
                found.append("relevance differs from brute_relevance")
        return found

    def _check_classify(self, op, report, _earlier) -> list[str]:
        kinds = [v["kind"] for v in report["classification"]]
        return [] if kinds == [op.expect] else [f"classified as {kinds}, "
                                                f"expected {op.expect}"]

    def _check_gen_gap(self, op, report, _earlier) -> list[str]:
        n = report["n"]
        found = []
        if Fraction(report["expected_value"]["value"]) != gap_value(n):
            found.append("gen-gap expected value is not n!^2/(2n+1)!")
        if report["endogenous_count"] != 2 * n + 1:
            found.append("gen-gap instance does not have 2n+1 players")
        if not all(Path(p).is_file() for p in report["files"].values()):
            found.append("gen-gap did not write its files")
        return found


def reference_problems(workload: str, outputs) -> list[list[str]]:
    """Hash check of the exact-method reports of the seed-0 op list, given
    (exit code, stdout) per op."""
    recorded = json.loads(REFERENCE_FILE.read_text())[workload]
    problems = []
    for i, (code, text) in enumerate(outputs):
        expected = recorded.get(str(i))
        if expected is None:
            problems.append([])
        elif code != 0:
            problems.append([f"reference op {i}: exit code {code}"])
        elif sha256(text) != expected:
            problems.append([f"reference op {i}: report bytes changed"])
        else:
            problems.append([])
    return problems


def hashed(text: str) -> bool:
    """Is this report from an exact method (and so byte-stable)?"""
    try:
        return json.loads(text)["method"] in HASHED_METHODS
    except (ValueError, KeyError):
        return False

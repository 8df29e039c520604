"""Command results and their JSON / table renderings.

A :class:`Report` lists the facts it speaks about as ``(Fact, value)``
pairs; the renderers read each fact's relation, arguments and provenance
off the :class:`~shapfact.model.Fact` itself.  The JSON rendering is
byte-stable: facts are sorted, key order is fixed, and rationals are
rendered exactly (``"num/den"``) next to a 12-significant-digit decimal
(banker's rounding), so identical runs produce identical bytes and
downstream diffs are meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from typing import Optional

from .model import Fact
from .parsing import format_atom

_TWELVE = Context(prec=12, rounding=ROUND_HALF_EVEN)


def rational_string(value: Fraction) -> str:
    """Canonical exact form, e.g. ``-2/35`` or ``0``; round-trips through
    ``Fraction``."""
    return str(value)


def decimal_string(value: Fraction) -> str:
    """12 significant digits, round-half-even."""
    return str(_TWELVE.divide(Decimal(value.numerator),
                              Decimal(value.denominator)))


def _fact_json(fact: Fact, value: Optional[Fraction]) -> dict:
    return {
        "relation": fact.relation.name,
        "args": list(fact.args),
        "provenance": fact.provenance.value,
        "value": None if value is None else rational_string(value),
        "decimal": None if value is None else decimal_string(value),
    }


@dataclass
class Report:
    """One command's result.  ``facts`` pairs each fact the command speaks
    about with its value, or with None when it values none; ``extra`` holds
    command-specific sections (relevance verdicts, probabilities, rewrite
    traces) appended after the common keys."""

    method: str
    query: str
    facts: list[tuple[Fact, Optional[Fraction]]] = field(
        default_factory=list)
    classification: Optional[list[dict]] = None
    seed: Optional[int] = None
    samples: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def sorted_facts(self) -> list[tuple[Fact, Optional[Fraction]]]:
        return sorted(self.facts, key=lambda pair: pair[0].key)

    def to_json(self) -> dict:
        payload = {
            "method": self.method,
            "query": self.query,
            "facts": [_fact_json(f, v) for f, v in self.sorted_facts()],
            "classification": self.classification,
            "seed": self.seed,
            "samples": self.samples,
        }
        payload.update(self.extra)
        return payload


def render_json(report: Report) -> str:
    return json.dumps(report.to_json(), indent=2) + "\n"


def render_table(report: Report) -> str:
    lines = [f"method: {report.method}"]
    for qline in report.query.splitlines():
        lines.append(f"query:  {qline}")
    pairs = report.sorted_facts()
    if pairs:
        names = [format_atom(f) for f, _ in pairs]
        width = max(len(n) for n in names)
        lines.append("")
        for (f, value), name in zip(pairs, names):
            exact = "" if value is None else rational_string(value)
            dec = "" if value is None else f"  {decimal_string(value)}"
            lines.append(f"  {name:<{width}}  {f.provenance.value:<4} "
                         f"{exact:>12}{dec}")
    if report.classification is not None:
        lines.append("")
        for i, verdict in enumerate(report.classification, start=1):
            text = verdict["kind"]
            witness = verdict.get("witness")
            if witness:
                parts = ", ".join(witness["atoms"])
                text += f"  [witness: {parts}"
                if "path" in witness:
                    text += f"; path {'-'.join(witness['path'])}"
                text += "]"
            lines.append(f"  rule {i}: {text}")
    for key, value in report.extra.items():
        lines.append("")
        lines.append(f"{key}: {json.dumps(value, indent=2)}")
    if report.samples is not None:
        lines.append("")
        lines.append(f"samples: {report.samples}  seed: {report.seed}")
    return "\n".join(lines) + "\n"

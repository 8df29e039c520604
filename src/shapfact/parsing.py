"""Text syntax for schemas, fact files, and queries.

Query syntax (Datalog-ish, one rule per statement)::

    q() :- Stud(x), not TA(x), Reg(x, y).

* identifiers starting with a lowercase letter are variables;
* identifiers starting with an uppercase letter, a digit or ``_``, and
  quoted tokens (``'New York'``), are constants;
* ``not`` negates the atom that follows;
* a union is written as several rules with the same head — there is no
  ``;`` operator.

Schema files declare one relation per line, with an optional marker for
relations whose facts are all exogenous::

    relation Stud/1 exogenous
    relation TA/1

Two kinds of relation name are reserved, in schemas and queries alike:
``not``, the negation keyword, and names that start with ``__exo_``, the
prefix of the relations the exogenous rewrite makes.

Fact files carry one fact per line.  Arguments in fact files are always
constants, whatever their capitalisation::

    exo  Stud(Adam)
    endo TA(Adam)
    prob 1/2 Reg(Adam, OS)   # a comment
    endo Reg('New York', 'it\\'s')

One compiled atom pattern, ``Name(c, ...)``, reads query atoms, fact lines
and ``--fact`` references, with one constant pattern for the arguments.  A
query rule is its head ``name() :-``, then literals (an optional ``not`` and
an atom), each followed by ``,`` or, after the last, ``.``; rules may span
lines.  A fact line is a keyword, ``exo``, ``endo`` or ``prob p``, then an
atom.  Probabilities are exact: either a decimal literal or ``num/den``.

A constant outside the bare shape (letters, digits, ``_``) is quoted with
single quotes.  Inside the quotes a backslash escapes the character after
it, so the writer escapes ``\\`` and ``'`` and the reader drops the
backslash before any character.  No constant holds a line break.  ``#``
starts a comment, up to the end of the line, in all three formats, but only
outside quotes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NoReturn, Optional

from . import errors
from .model import (
    LINE_BREAKS,
    Atom,
    Const,
    CQNeg,
    Database,
    Fact,
    Provenance,
    Query,
    RelationSym,
    Schema,
    Term,
    UCQNeg,
    Var,
    disjuncts_of,
    fact_violations,
    is_bare_constant,
    line_break_violations,
    query_violations,
    quoted,
    raise_first,
    reserved_name_violations,
    schema_violations,
)

# ---------------------------------------------------------------------------
# the shared patterns
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# one constant: a bare word, or a quoted token in which a backslash escapes
# the character after it; neither holds a line break
_BARE = r"[A-Za-z0-9_]+"
_QUOTED = rf"'(?:[^'\\{LINE_BREAKS}]|\\[^{LINE_BREAKS}])*'"
_CONSTANT = f"(?:{_BARE}|{_QUOTED})"
_CONSTANT_RE = re.compile(_CONSTANT)
# ``Name(c, ...)``
_ATOM = (rf"(?P<name>{_NAME})\s*"
         rf"\(\s*(?P<args>(?:{_CONSTANT}(?:\s*,\s*{_CONSTANT})*)?)\s*\)")
_ATOM_RE = re.compile(_ATOM)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unquote(text: str) -> str:
    """The constant a quoted token spells (the inverse of ``quoted``)."""
    return _ESCAPE.sub(r"\1", text[1:-1])


def _args(text: str) -> tuple[str, ...]:
    """The constants of an argument list that the atom pattern matched;
    without a quote, that is the bare words between commas and spaces."""
    if "'" not in text:
        return tuple(text.replace(",", " ").split())
    return tuple(_unquote(c) if c[0] == "'" else c
                 for c in _CONSTANT_RE.findall(text))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

# quoted tokens are kept, so that a ``#`` inside quotes is not a comment
_COMMENT = re.compile(rf"{_QUOTED}|#.*")
_SPACE = re.compile(r"\s*")
_HEAD = re.compile(rf"\s*(?P<head>{_NAME})\s*\((?P<args>[^)]*)\)\s*:-")
# ``not(x)`` is no atom; ``not not(x)`` reads, and the reserved-name check
# refuses it
_LITERAL = re.compile(rf"\s*(?:(?P<negated>not\s+)|(?!not\b)){_ATOM}")
_SEPARATOR = re.compile(r"\s*([,.])")


def _blank_comment(m: re.Match) -> str:
    return m[0] if m[0][0] == "'" else " " * len(m[0])


def _fail(text: str, pos: int, message: str) -> NoReturn:
    """Raise at the first non-blank character from ``pos``."""
    at = _SPACE.match(text, pos).end()
    if text.startswith(";", at):
        message = ("';' is not part of the syntax; write a union as "
                   "several rules with the same head")
    raise errors.QuerySyntaxError(message, text.count("\n", 0, at) + 1,
                                  at - text.rfind("\n", 0, at))


def _match(pattern: re.Pattern, text: str, pos: int, what: str) -> re.Match:
    m = pattern.match(text, pos)
    if m is None:
        _fail(text, pos, f"expected {what}")
    return m


def _term(token: str) -> Term:
    if token[0] == "'":
        return Const(_unquote(token))
    return Const(token) if is_bare_constant(token) else Var(token)


def parse_query(text: str, schema: Optional[Schema] = None) -> UCQNeg:
    """Parse query text into a union of conjunctive rules.

    With a schema, relation names are resolved against it (and carry its
    exogenous markers); without one, relation symbols are inferred with the
    arity of their first occurrence.  Syntax errors raise
    ``QuerySyntaxError`` at the line and column where the text stops
    matching; then safety, arity, reserved and undeclared relation names
    are checked by ``query_violations``.
    """
    text = _COMMENT.sub(_blank_comment, text)
    inferred: dict[str, RelationSym] = {}
    rules: list[CQNeg] = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _match(_HEAD, text, pos, "a rule head 'name() :-'")
        head = m["head"]
        if m["args"].strip():
            _fail(text, pos, "the head takes no arguments (Boolean query)")
        if rules and head != rules[0].head:
            _fail(text, pos, f"all rules must share one head; got "
                             f"{head!r} after {rules[0].head!r}")
        atoms: list[Atom] = []
        while not atoms or m[1] == ",":
            m = _match(_LITERAL, text, m.end(),
                       "a literal 'R(t, ...)' or 'not R(t, ...)'")
            terms = tuple(map(_term, _CONSTANT_RE.findall(m["args"])))
            name = m["name"]
            rel = ((schema.get(name) if schema is not None else None)
                   or inferred.setdefault(name, RelationSym(name, len(terms))))
            atoms.append(Atom(rel, terms, m["negated"] is not None))
            m = _match(_SEPARATOR, text, m.end(), "',' or '.' after a literal")
        rules.append(CQNeg(tuple(atoms), head=head))
        pos = _SPACE.match(text, m.end()).end()
    if not rules:
        raise errors.QuerySyntaxError("no rules in query text", 1, 1)
    query = UCQNeg(tuple(rules))
    raise_first(query_violations(query, schema))
    return query


# ---------------------------------------------------------------------------
# schema and fact files
# ---------------------------------------------------------------------------

_SCHEMA_LINE = re.compile(
    rf"relation\s+({_NAME})\s*/\s*([0-9]+)"
    r"(?:\s+(exogenous))?\s*\Z"
)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_schema(text: str) -> Schema:
    """Parse ``relation Name/arity [exogenous]`` lines into a schema."""
    declared: list[tuple[int, RelationSym]] = []
    for lineno, line in _content_lines(text):
        m = _SCHEMA_LINE.match(line)
        if m is None:
            raise errors.SchemaSyntaxError(
                f"line {lineno}: expected 'relation Name/arity [exogenous]', "
                f"got: {line}"
            )
        name, arity, exo = m.group(1), int(m.group(2)), bool(m.group(3))
        raise_first(reserved_name_violations(name), f"line {lineno}: ")
        declared.append((lineno, RelationSym(name, arity, exo)))
    lineno = 0

    def relations():
        nonlocal lineno
        for lineno, rel in declared:
            yield rel

    # Schema refuses a relation declared twice when it reads the second
    # declaration, whose line is the last one read
    try:
        return Schema(relations())
    except errors.SchemaSyntaxError as exc:
        raise errors.SchemaSyntaxError(f"line {lineno}: {exc}") from None


# a whole fact line; blank and comment-only lines match with no keyword.
# Its groups are, in order, keyword, p, name and args
_FACT_LINE = re.compile(
    rf"\s*(?:(?:(?P<keyword>exo|endo)|prob\s+(?P<p>\S+))\s+{_ATOM}\s*)?"
    r"(?:#.*)?"
)


def parse_fact_reference(text: str) -> tuple[str, tuple[str, ...]]:
    """Parse a fact written as ``Name(c, ...)``, e.g. for ``--fact``."""
    m = _ATOM_RE.fullmatch(text.strip())
    if m is None:
        raise errors.SchemaSyntaxError(
            f"expected a fact 'Name(c, ...)', got: {text}")
    return m["name"], _args(m["args"])


def _resolve(lineno: int, name: str, args: tuple[str, ...],
             keyword: Optional[str], p: Optional[str], schema: Schema
             ) -> tuple[RelationSym, Provenance, Optional[Fraction]]:
    """The relation, provenance and probability of a fact line, once
    ``fact_violations`` has passed its fact; errors name ``lineno``."""
    rel = schema.get(name) or RelationSym(name, len(args))
    probability: Optional[Fraction] = None
    if keyword == "exo":
        provenance = Provenance.EXOGENOUS
    elif keyword == "endo":
        provenance = Provenance.ENDOGENOUS
    else:
        try:
            probability = Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise errors.BadProbabilityError(
                f"line {lineno}: bad probability {p!r}") from exc
        provenance = (Provenance.EXOGENOUS if rel.exogenous_only
                      else Provenance.ENDOGENOUS)
    raise_first(fact_violations(Fact(rel, args, provenance, probability),
                                schema), f"line {lineno}: ")
    return rel, provenance, probability


def parse_facts(text: str, schema: Schema) -> Database:
    """Parse fact lines into a database over ``schema``.

    The lines stream into :class:`Database`, which deduplicates each fact
    once: identical duplicate lines merge, and a line that disagrees about
    an already-seen fact's provenance or probability is an error naming
    both lines.

    No constant read from a line holds a line break, so a line's key, its
    relation name, arity, keyword and probability text, decides its
    relation, provenance and probability and every rule of
    ``fact_violations``: each key is resolved and checked at its first
    line only.
    """
    raise_first(schema_violations(schema))
    resolved: dict[tuple, tuple[RelationSym, Provenance,
                                Optional[Fraction]]] = {}
    lines = text.splitlines()
    lineno = 0

    def facts():
        nonlocal lineno
        for lineno, line in enumerate(lines, start=1):
            m = _FACT_LINE.fullmatch(line)
            if m is None:
                raise errors.SchemaSyntaxError(
                    f"line {lineno}: expected 'exo|endo|prob p "
                    f"Name(c, ...)', got: {line.strip()}"
                )
            keyword, p, name, args_text = m.groups()
            if name is None:
                continue
            args = _args(args_text)
            key = (name, len(args), keyword, p)
            found = resolved.get(key)
            if found is None:
                found = resolved[key] = _resolve(lineno, name, args, keyword,
                                                 p, schema)
            yield Fact(found[0], args, found[1], found[2])

    # the database refuses a conflicting duplicate as it reads the second
    # line, the last one read; the first is the earliest line of the fact
    try:
        return Database(schema, facts())
    except errors.DuplicateFactError as exc:
        stored, fact = exc.stored, exc.fact
        first = next(n for n, m in enumerate(map(_FACT_LINE.fullmatch, lines),
                                             start=1)
                     if m["name"] is not None
                     and (m["name"], _args(m["args"])) == stored.key)
        raise errors.DuplicateFactError(
            f"line {lineno}: {format_fact(fact)} conflicts with line "
            f"{first}: {format_fact(stored)}", stored, fact) from None


# ---------------------------------------------------------------------------
# rendering (inverse of the parsers above)
# ---------------------------------------------------------------------------

def format_query(query: Query) -> str:
    return "\n".join(str(d) for d in disjuncts_of(query))


def format_schema(schema: Schema) -> str:
    return "\n".join(str(rel) for rel in schema.relations)


def _format_arg(value: str) -> str:
    return value if re.fullmatch(_BARE, value) else quoted(value)


def format_atom(fact: Fact) -> str:
    """``fact`` as ``Name(c, ...)``, the way fact lines and ``--fact``
    write it: a constant outside the bare shape is quoted."""
    return f"{fact.relation.name}({', '.join(map(_format_arg, fact.args))})"


def format_fact(fact: Fact) -> str:
    """``fact`` as a fact line; a constant holding a line break, which no
    line could carry, is refused with ``SchemaSyntaxError``."""
    raise_first(line_break_violations(fact))
    if fact.probability is not None:
        return f"prob {fact.probability} {format_atom(fact)}"
    return f"{fact.provenance.value} {format_atom(fact)}"


def format_database(db: Database) -> str:
    return "\n".join(format_fact(f) for f in db.facts)

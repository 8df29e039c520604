"""Text syntax for schemas, fact files, and queries.

Query syntax (Datalog-ish, one rule per statement)::

    q() :- Stud(x), not TA(x), Reg(x, y).

* identifiers starting with a lowercase letter are variables;
* identifiers starting with an uppercase letter or a digit, and quoted
  tokens (``'New York'``), are constants;
* ``not`` negates the atom that follows;
* a union is written as several rules with the same head — there is no
  ``;`` operator.

Schema files declare one relation per line, with an optional marker for
relations whose facts are all exogenous::

    relation Stud/1 exogenous
    relation TA/1

Fact files carry one fact per line.  Arguments in fact files are always
constants, whatever their capitalisation::

    exo  Stud(Adam)
    endo TA(Adam)
    prob 1/2 Reg(Adam, OS)   # a comment
    endo Reg('New York', 'it\\'s')

One compiled pattern reads a whole fact line: the keyword, the relation
name, the constants and an optional comment; ``--fact`` references are read
by the same atom pattern.  Probabilities are exact: either a decimal
literal or ``num/den``.

A constant outside the bare shape (letters, digits, ``_``) is quoted with
single quotes.  Inside the quotes a backslash escapes the character after
it, so the writer escapes ``\\`` and ``'`` and the reader drops the
backslash before any character.  ``#`` starts a comment in all three
formats, but only outside quotes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import errors
from .model import (
    RESERVED_PREFIX,
    Atom,
    Const,
    CQNeg,
    Database,
    Fact,
    Provenance,
    Query,
    RelationSym,
    Schema,
    UCQNeg,
    Var,
    disjuncts_of,
    fact_violations,
    is_variable_token,
    query_violations,
    quoted,
    raise_first,
    schema_violations,
)

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# one constant of a fact: a bare word, or a quoted token in which a
# backslash escapes the character after it
_BARE = r"[A-Za-z0-9_]+"
_QUOTED = r"'(?:[^'\\]|\\.)*'"
_CONSTANT = f"(?:{_BARE}|{_QUOTED})"
_CONSTANT_RE = re.compile(_CONSTANT)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[0-9][A-Za-z0-9_]*)
  | (?P<string>""" + _QUOTED + r""")
  | (?P<implies>:-)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<period>\.)
  | (?P<semicolon>;)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise errors.QuerySyntaxError(
                f"unexpected character {text[pos]!r}",
                line, pos - line_start + 1,
            )
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, pos - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unquote(text: str) -> str:
    """The constant a quoted token spells (the inverse of ``quoted``)."""
    return _ESCAPE.sub(r"\1", text[1:-1])


# ---------------------------------------------------------------------------
# query parser
# ---------------------------------------------------------------------------


class _QueryParser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token], schema: Optional[Schema]):
        self.tokens = tokens
        self.pos = 0
        self.schema = schema
        # relations seen so far when parsing without a schema; arity is
        # pinned by first use
        self.inferred: dict[str, RelationSym] = {}

    # -- primitives ---------------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> Token:
        tok = self._peek()
        if tok.kind != kind:
            self._fail(f"expected {what}, found {tok.text or 'end of input'!r}")
        return self._advance()

    def _fail(self, message: str) -> None:
        tok = self._peek()
        if tok.kind == "semicolon":
            message = ("';' is not part of the syntax; write a union as "
                       "several rules with the same head")
        raise errors.QuerySyntaxError(message, tok.line, tok.column)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> UCQNeg:
        rules: list[CQNeg] = []
        head: Optional[str] = None
        while self._peek().kind != "eof":
            name, body = self._rule()
            if head is None:
                head = name
            elif name != head:
                self._fail(f"all rules must share one head; got {name!r} "
                           f"after {head!r}")
            rules.append(CQNeg(tuple(body), head=head))
        if not rules:
            raise errors.QuerySyntaxError("no rules in query text", 1, 1)
        return UCQNeg(tuple(rules), head=head or "q")

    def _rule(self) -> tuple[str, list[Atom]]:
        head = self._expect("ident", "rule head").text
        self._expect("lparen", "'('")
        if self._peek().kind != "rparen":
            self._fail("the head takes no arguments (Boolean query)")
        self._advance()
        self._expect("implies", "':-'")
        body = [self._literal()]
        while self._peek().kind == "comma":
            self._advance()
            body.append(self._literal())
        self._expect("period", "'.' at end of rule")
        return head, body

    def _literal(self) -> Atom:
        negated = False
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "not":
            self._advance()
            negated = True
        return self._atom(negated)

    def _atom(self, negated: bool) -> Atom:
        name_tok = self._expect("ident", "relation name")
        name = name_tok.text
        self._expect("lparen", "'('")
        terms: list = []
        if self._peek().kind != "rparen":
            terms.append(self._term())
            while self._peek().kind == "comma":
                self._advance()
                terms.append(self._term())
        self._expect("rparen", "')'")
        rel = self._resolve(name, len(terms), name_tok)
        return Atom(rel, tuple(terms), negated)

    def _term(self):
        tok = self._peek()
        if tok.kind == "ident":
            self._advance()
            if is_variable_token(tok.text):
                return Var(tok.text)
            return Const(tok.text)
        if tok.kind == "number":
            self._advance()
            return Const(tok.text)
        if tok.kind == "string":
            self._advance()
            return Const(_unquote(tok.text))
        self._fail("expected a term (variable or constant)")
        raise AssertionError("unreachable")

    def _resolve(self, name: str, arity: int, tok: Token) -> RelationSym:
        if name.startswith(RESERVED_PREFIX):
            raise errors.ReservedNameError(
                f"line {tok.line}: relation name {name} uses the reserved "
                f"prefix {RESERVED_PREFIX}"
            )
        if self.schema is not None:
            rel = self.schema.get(name)
            if rel is None:
                raise errors.UnknownRelationError(
                    f"line {tok.line}: relation {name} is not declared in "
                    f"the schema"
                )
            return rel
        rel = self.inferred.get(name)
        if rel is None:
            rel = RelationSym(name, arity)
            self.inferred[name] = rel
        return rel


def parse_query(text: str, schema: Optional[Schema] = None) -> UCQNeg:
    """Parse query text into a union of conjunctive rules.

    With a schema, relation names are resolved against it (and carry its
    exogenous markers); without one, relation symbols are inferred with the
    arity of their first occurrence.  Safety and arity violations raise.
    """
    query = _QueryParser(_tokenize(text), schema).parse()
    raise_first(query_violations(query, schema))
    return query


# ---------------------------------------------------------------------------
# schema and fact files
# ---------------------------------------------------------------------------

_SCHEMA_LINE = re.compile(
    r"relation\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*([0-9]+)"
    r"(?:\s+(exogenous))?\s*\Z"
)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_schema(text: str) -> Schema:
    """Parse ``relation Name/arity [exogenous]`` lines into a schema."""
    relations: list[RelationSym] = []
    seen: set[str] = set()
    for lineno, line in _content_lines(text):
        m = _SCHEMA_LINE.match(line)
        if m is None:
            raise errors.SchemaSyntaxError(
                f"line {lineno}: expected 'relation Name/arity [exogenous]', "
                f"got: {line}"
            )
        name, arity, exo = m.group(1), int(m.group(2)), bool(m.group(3))
        if name.startswith(RESERVED_PREFIX):
            raise errors.ReservedNameError(
                f"line {lineno}: relation name {name} uses the reserved "
                f"prefix {RESERVED_PREFIX}"
            )
        if name in seen:
            raise errors.SchemaSyntaxError(
                f"line {lineno}: relation {name} declared twice"
            )
        seen.add(name)
        relations.append(RelationSym(name, arity, exo))
    return Schema(relations)


# ``Name(c, ...)`` with constant arguments
_ATOM = (rf"(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
         rf"\(\s*(?P<args>(?:{_CONSTANT}(?:\s*,\s*{_CONSTANT})*)?)\s*\)")
_ATOM_RE = re.compile(_ATOM)
# a whole fact line; blank and comment-only lines match with no keyword
_FACT_LINE = re.compile(
    rf"\s*(?:(?:(?P<keyword>exo|endo)|prob\s+(?P<p>\S+))\s+{_ATOM}\s*)?"
    r"(?:#.*)?"
)


def _args(text: str) -> tuple[str, ...]:
    return tuple(_unquote(c) if c[0] == "'" else c
                 for c in _CONSTANT_RE.findall(text))


def parse_fact_reference(text: str) -> tuple[str, tuple[str, ...]]:
    """Parse a fact written as ``Name(c, ...)``, e.g. for ``--fact``."""
    m = _ATOM_RE.fullmatch(text.strip())
    if m is None:
        raise errors.SchemaSyntaxError(
            f"expected a fact 'Name(c, ...)', got: {text}")
    return m["name"], _args(m["args"])


def parse_facts(text: str, schema: Schema) -> Database:
    """Parse fact lines into a database over ``schema``.

    Identical duplicate lines are deduplicated; a line that disagrees about
    an already-seen fact's provenance or probability is an error naming
    both lines.
    """
    raise_first(schema_violations(schema))
    first_seen: dict[tuple[str, tuple[str, ...]], tuple[int, Fact]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _FACT_LINE.fullmatch(line)
        if m is None:
            raise errors.SchemaSyntaxError(
                f"line {lineno}: expected 'exo|endo|prob p Name(c, ...)', "
                f"got: {line.strip()}"
            )
        name = m["name"]
        if name is None:
            continue
        args = _args(m["args"])
        rel = schema.get(name) or RelationSym(name, len(args))
        probability: Optional[Fraction] = None
        if m["keyword"] == "exo":
            provenance = Provenance.EXOGENOUS
        elif m["keyword"] == "endo":
            provenance = Provenance.ENDOGENOUS
        else:
            try:
                probability = Fraction(m["p"])
            except (ValueError, ZeroDivisionError) as exc:
                raise errors.BadProbabilityError(
                    f"line {lineno}: bad probability {m['p']!r}"
                ) from exc
            provenance = (Provenance.EXOGENOUS if rel.exogenous_only
                          else Provenance.ENDOGENOUS)
        fact = Fact(rel, args, provenance, probability)
        problems = fact_violations(fact, schema)
        if problems:
            raise_first([(kind, f"line {lineno}: {message}")
                         for kind, message in problems])
        if rel.exogenous_only and probability not in (None, 1):
            raise errors.BadProbabilityError(
                f"line {lineno}: relation {name} is declared exogenous; "
                f"its facts must have probability 1"
            )
        prior_line, prior = first_seen.setdefault(fact.key, (lineno, fact))
        if (prior.provenance is not fact.provenance
                or prior.probability != fact.probability):
            raise errors.DuplicateFactError(
                f"line {lineno}: {format_fact(fact)} conflicts with line "
                f"{prior_line}: {format_fact(prior)}"
            )
    return Database(schema, [fact for _, fact in first_seen.values()])


# ---------------------------------------------------------------------------
# rendering (inverse of the parsers above)
# ---------------------------------------------------------------------------

def format_query(query: Query) -> str:
    return "\n".join(str(d) for d in disjuncts_of(query))


def format_schema(schema: Schema) -> str:
    return "\n".join(str(rel) for rel in schema.relations)


def _format_arg(value: str) -> str:
    return value if re.fullmatch(_BARE, value) else quoted(value)


def format_fact(fact: Fact) -> str:
    atom = f"{fact.relation.name}({', '.join(_format_arg(a) for a in fact.args)})"
    if fact.probability is not None:
        return f"prob {fact.probability} {atom}"
    return f"{fact.provenance.value} {atom}"


def format_database(db: Database) -> str:
    return "\n".join(format_fact(f) for f in db.facts)

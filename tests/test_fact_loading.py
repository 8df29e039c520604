"""``parse_facts`` against a per-line reference loader.

``parse_facts`` resolves and checks each key of a fact line (relation
name, arity, keyword and probability text) once, and splits argument lists
without quotes on commas.  The reference below resolves, parses and checks
every line on its own and reads every argument list with the constant
pattern; both must give the same facts in the same order, or the same
error.  ``Database`` indexes the facts it is given in one pass; every view
of a loaded database must equal both that of a database built from the
reference's facts and the view recomputed from them here."""

import random
from fractions import Fraction
from typing import Optional

from shapfact import errors
from shapfact.model import (Database, Fact, Provenance, RelationSym, Schema,
                            fact_violations, raise_first, schema_violations)
from shapfact.parsing import (_CONSTANT_RE, _FACT_LINE, _unquote,
                              format_fact, parse_facts, parse_schema)


def reference_parse_facts(text: str, schema: Schema) -> tuple[Fact, ...]:
    """Every line resolved, parsed and checked on its own; the facts in
    canonical order."""
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
        args = tuple(_unquote(c) if c[0] == "'" else c
                     for c in _CONSTANT_RE.findall(m["args"]))
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
        prior_line, prior = first_seen.setdefault(fact.key, (lineno, fact))
        if (prior.provenance is not fact.provenance
                or prior.probability != fact.probability):
            raise errors.DuplicateFactError(
                f"line {lineno}: {format_fact(fact)} conflicts with line "
                f"{prior_line}: {format_fact(prior)}"
            )
    return tuple(sorted((fact for _, fact in first_seen.values()),
                        key=lambda fact: fact.key))


SCHEMA = parse_schema("relation R/2\nrelation S/1 exogenous\n"
                      "relation T/0\nrelation U/3")

# spellings of a constant, each with the value it reads as
CONSTANTS = [
    ("a", "a"), ("Adam", "Adam"), ("9z", "9z"), ("_x", "_x"), ("b", "b"),
    ("'a, b'", "a, b"), ("'a,b'", "a,b"), ("'it\\'s'", "it's"),
    ("'back\\\\slash'", "back\\slash"), ("'x\\y'", "xy"), ("''", ""),
    ("'#hash'", "#hash"), ("'tab\there'", "tab\there"), ("'a'", "a"),
]
# whitespace that is not a line break, for between the tokens of a line
SPACES = ["", " ", "  ", "\t", " \t ", "\x1f", "\xa0", "　"]
# probability spellings under 1, with 0.5 next to 1/2 and 2/4
UNDER_ONE = ["0.5", "1/2", "2/4", "0", "0.0", "1/3", "3/8", "0.375"]
ONE = ["1", "1.0", "2/2", "1/1"]


def _space(rng: random.Random, at_least_one: bool = False) -> str:
    space = rng.choice(SPACES)
    return space if space or not at_least_one else " "


def _line(rng: random.Random, keyword: str, name: str,
          constants: list[str]) -> str:
    args = (_space(rng) + "," + _space(rng)).join(constants)
    line = (f"{_space(rng)}{keyword}{_space(rng, True)}{name}{_space(rng)}("
            f"{_space(rng)}{args}{_space(rng)}){_space(rng)}")
    if rng.random() < 0.2:
        line += "# a comment, with 'quotes' and R(x)"
    return line


def _valid_atom(rng: random.Random, keywords: dict[tuple, str]
                ) -> tuple[str, str, list[str]]:
    """A keyword, relation name and constant spellings that load, with the
    keyword ``keywords`` holds for the same fact, its probability maybe
    spelled otherwise."""
    name = rng.choice(["R", "R", "U", "S", "T"])
    picked = [rng.choice(CONSTANTS) for _ in range(SCHEMA[name].arity)]
    keyword = keywords.setdefault(
        (name, tuple(value for _, value in picked)),
        rng.choice(["exo", "prob " + rng.choice(ONE)] if name == "S" else
                   ["exo", "endo", "prob " + rng.choice(UNDER_ONE + ONE)]))
    if keyword.startswith("prob"):
        p = Fraction(keyword.split()[1])
        keyword = "prob " + rng.choice(
            [q for q in UNDER_ONE + ONE if Fraction(q) == p])
    return keyword, name, [spelling for spelling, _ in picked]


def _fault(rng: random.Random, kind: str,
           atoms: list[tuple[str, str, list[str]]]) -> str:
    constants = [rng.choice(CONSTANTS)[0] for _ in range(3)]
    if kind == "unknown relation":
        return _line(rng, "endo", "V", constants[:1])
    if kind == "wrong arity":
        return _line(rng, rng.choice(["exo", "endo", "prob 1/2"]), "R",
                     constants[:rng.choice([0, 1, 3])])
    if kind == "endogenous in an exogenous relation":
        return _line(rng, "endo", "S", constants[:1])
    if kind == "two problems":  # wrong arity, and endogenous in S
        return _line(rng, "endo", "S", constants[:rng.choice([0, 2, 3])])
    if kind == "bad probability":
        return _line(rng, "prob " + rng.choice(["nope", "1/0", "1//2"]),
                     "R", constants[:2])
    if kind == "probability out of range":
        return _line(rng, "prob " + rng.choice(["3/2", "-1/2", "1.5"]),
                     "U", constants)
    if kind == "exogenous probability below 1":
        return _line(rng, "prob " + rng.choice(UNDER_ONE[:3]), "S",
                     constants[:1])
    if kind == "syntax":
        return rng.choice(["endo R(a b)", "R(a)", "endo R('x)", "prob 1/2"])
    # a conflicting duplicate: an earlier fact under another keyword
    if not atoms:
        return _line(rng, "endo", "T", [])
    _keyword, name, constants = rng.choice(atoms)
    keyword = rng.choice(["exo", "endo", "prob 1/3", "prob 0.25"])
    return _line(rng, keyword, name, constants)


# what the first error of a file says, for each fault the generator injects
FIRST_ERRORS = {
    "unknown relation": (errors.UnknownRelationError, "is not in the schema"),
    "wrong arity": (errors.ArityError, "!= declared"),
    "endogenous in an exogenous relation": (
        errors.ProvenanceError, "but the fact is endogenous"),
    "two problems": (errors.ArityError,
                     "!= declared 1 (and 1 more problem(s))"),
    "bad probability": (errors.BadProbabilityError, "bad probability"),
    "probability out of range": (errors.BadProbabilityError, "outside [0, 1]"),
    "exogenous probability below 1": (
        errors.BadProbabilityError, "must have probability 1"),
    "syntax": (errors.SchemaSyntaxError, "expected"),
    "conflicting duplicate": (errors.DuplicateFactError, "conflicts with"),
}


def _fact_file(rng: random.Random) -> tuple[str, int]:
    """A fact file, and the number of its fact lines."""
    lines: list[str] = []
    atoms: list[tuple[str, str, list[str]]] = []
    keywords: dict[tuple, str] = {}
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(_space(rng))
        elif roll < 0.15:
            lines.append(_space(rng) + "# only a comment, endo R(a, b)")
        elif roll < 0.35 and atoms:
            atoms.append(rng.choice(atoms))  # an identical duplicate
            lines.append(_line(rng, *atoms[-1]))
        else:
            atoms.append(_valid_atom(rng, keywords))
            lines.append(_line(rng, *atoms[-1]))
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        fault = _fault(rng, rng.choice(list(FIRST_ERRORS)), atoms)
        lines.insert(rng.randint(0, len(lines)), fault)
    return rng.choice(["\n", "\r\n"]).join(lines), len(atoms)


# every relation of the schema, and one it lacks
NAMES = [rel.name for rel in SCHEMA.relations] + ["V"]


def _row(fact: Fact) -> tuple:
    return fact.relation, fact.args, fact.provenance, fact.probability


def _rows(facts) -> list[tuple]:
    return [_row(fact) for fact in facts]


def _views(db: Database) -> tuple:
    """Every view a database gives of its facts, each fact as a full row."""
    return (_rows(db.facts), _rows(db.endogenous), _rows(db.exogenous),
            {key: _row(fact) for key, fact in db.by_key.items()},
            {name: _rows(db.relation_facts(name)) for name in NAMES},
            {name: db.tuples(name) for name in NAMES})


def _reference_views(facts: tuple[Fact, ...]) -> tuple:
    """The views of ``_views``, from facts in canonical order."""
    def of(name):
        return [f for f in facts if f.relation.name == name]
    return (_rows(facts), _rows(f for f in facts if f.endogenous),
            _rows(f for f in facts if not f.endogenous),
            {f.key: _row(f) for f in facts},
            {name: _rows(of(name)) for name in NAMES},
            {name: frozenset(f.args for f in of(name)) for name in NAMES})


def _outcome(loader, text: str):
    try:
        return [(f.relation, f.args, f.provenance, f.probability)
                for f in loader(text, SCHEMA)]
    except errors.ShapfactError as exc:
        # the cause too: ``prob 1/0`` is refused from a ZeroDivisionError
        return type(exc), str(exc), type(exc.__cause__)


def test_fact_loading_matches_the_per_line_reference():
    rng = random.Random(15001)
    raised = dict.fromkeys(FIRST_ERRORS, 0)
    loaded = deduplicated = 0
    for _ in range(2000):
        text, fact_lines = _fact_file(rng)
        expected = _outcome(reference_parse_facts, text)
        assert _outcome(parse_facts, text) == expected, text
        if isinstance(expected, tuple):
            kind, message, _cause = expected
            raised.update((fault, count + 1) for fault, count in raised.items()
                          if FIRST_ERRORS[fault][0] is kind
                          and FIRST_ERRORS[fault][1] in message)
        else:
            reference = reference_parse_facts(text, SCHEMA)
            assert _views(parse_facts(text, SCHEMA)) \
                == _views(Database(SCHEMA, reference)) \
                == _reference_views(reference), text
            loaded += bool(expected)
            deduplicated += len(expected) < fact_lines
    # every injected fault is the first error of many files, and most of
    # the other files load facts, some of them repeated
    assert min(raised.values()) >= 50, raised
    assert loaded >= 600 and deduplicated >= 400


def test_the_generator_reads_every_constant_spelling():
    for spelling, value in CONSTANTS:
        for space in SPACES:
            line = f"endo{space or ' '}R({space}{spelling}{space},{space}" \
                   f"{spelling}{space})"
            assert _outcome(parse_facts, line) == [
                (SCHEMA["R"], (value, value), Provenance.ENDOGENOUS, None)]

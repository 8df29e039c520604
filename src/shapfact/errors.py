"""Exception hierarchy.

Two broad families matter to callers (and to the CLI's exit codes):

* :class:`InputError` — the input itself is malformed (bad syntax, unknown
  relation, arity mismatch, conflicting duplicate facts, ...).  CLI exit 1.
* :class:`RefusedError` — the input is well-formed but the requested
  computation is declined (query outside a method's tractable class, a
  size cap would be exceeded, ...).  CLI exit 2.
"""

from __future__ import annotations


class ShapfactError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ShapfactError):
    """Malformed input: syntax, schema, or database problems."""


class RefusedError(ShapfactError):
    """Well-formed input, but the requested computation is declined."""


# ---------------------------------------------------------------------------
# input errors


class QuerySyntaxError(InputError):
    """Syntax error in query text, with position information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SchemaSyntaxError(InputError):
    """Syntax error in a schema/facts file."""


class UnknownRelationError(InputError):
    """A relation name is not declared in the schema."""


class ArityError(InputError):
    """An atom or fact uses a relation with the wrong number of arguments."""


class SafetyError(InputError):
    """Unsafe query: a variable of a negated atom occurs in no positive atom."""


class ReservedNameError(InputError):
    """A relation name is reserved: it starts with ``__exo_``, the prefix
    of the exogenous rewrite's relations, or it is ``not``, the negation
    keyword."""


class DuplicateFactError(InputError):
    """Two facts with the same relation and arguments disagree on
    provenance or probability: ``stored``, the one read first, and
    ``fact``."""

    def __init__(self, message: str, stored: object = None,
                 fact: object = None):
        super().__init__(message)
        self.stored = stored
        self.fact = fact


class ProvenanceError(InputError):
    """An endogenous fact in a relation whose facts must all be
    exogenous."""


class BadProbabilityError(InputError):
    """A fact probability is outside [0, 1], or a deterministic fact was
    required but a properly probabilistic one was found."""


class UnknownFactError(InputError):
    """A fact reference does not match any fact in the database."""


class FactNotEndogenousError(InputError):
    """An operation that attributes a value to a fact was given an
    exogenous fact."""


# ---------------------------------------------------------------------------
# refused computations


class UnsupportedQueryError(RefusedError):
    """The requested method does not handle this query form (e.g. a union
    handed to a single-block engine)."""


class SelfJoinError(RefusedError):
    """The requested method requires a self-join-free query."""


class NotHierarchicalError(RefusedError):
    """The exact counting engine requires a hierarchical query."""


class HasNonHierPathError(RefusedError):
    """The rewrite requires the absence of a non-hierarchical path; the
    offending witness is attached."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotPolarityConsistentError(RefusedError):
    """The relevance test requires every relation to occur with a single
    polarity in the query."""


class CapExceededError(RefusedError):
    """The brute-force engine was asked to enumerate more endogenous facts
    than its cap allows, or the sampler to draw more arrival keys than
    its cap allows."""


class BlowupExceededError(RefusedError):
    """A materialise step of the exogenous rewrite would build more tuples
    than the configured cap."""


class InternalError(ShapfactError):
    """Invariant violation inside an engine.  Always a bug, never an input
    problem."""

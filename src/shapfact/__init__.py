"""Attribution of boolean query answers to individual database facts.

Given a database split into fixed (exogenous) and contributing
(endogenous) facts and a conjunctive query with safe negation, this
package computes each endogenous fact's Shapley value: its average
marginal contribution to making the query true over all orders in which
the endogenous facts could be added.

Entry points:

* :func:`shapley_exact` / :func:`shapley_exact_all` - polynomial engine
  for hierarchical self-join-free rules.
* :func:`shapley_exo` / :func:`shapley_exo_all` - extend the exact engine
  by compiling away exogenous relations when no obstructing connectivity
  pattern exists.
* :func:`brute_shapley` - subset enumeration, the reference for
  everything else.
* :func:`shapley_additive_fpras` - seeded sampling for the hard cases:
  one pass over shared sampled orders values every fact, each with an
  additive (epsilon, delta) guarantee.
* :func:`relevance` - the one zero-vs-nonzero decision, for
  polarity-consistent queries and unions: it scans the one direction the
  fact's relation can flip the query, and its result is a replayable
  witness or none; :func:`shapley_is_zero` is its yes/no form.
* :func:`prob_eval` / :func:`brute_prob` - query probability when facts
  carry independent probabilities.
* :func:`classify` - which of the above applies.
"""

from .approx import SamplingPlan, make_plan, shapley_additive_fpras
from .errors import (ArityError, BadProbabilityError, BlowupExceededError,
                     CapExceededError, DuplicateFactError,
                     FactNotEndogenousError, HasNonHierPathError, InputError,
                     InternalError, NotHierarchicalError,
                     NotPolarityConsistentError, ProvenanceError,
                     QuerySyntaxError, RefusedError, ReservedNameError,
                     SafetyError, SchemaSyntaxError, SelfJoinError,
                     ShapfactError, UnknownFactError, UnknownRelationError,
                     UnsupportedQueryError)
from .exact import count_satisfying_subsets, shapley_exact, shapley_exact_all
from .model import (Atom, CQNeg, Const, Database, Fact, Provenance, Query,
                    RelationSym, Schema, UCQNeg, Var, active_domain,
                    disjuncts_of, single_disjunct, validate_database,
                    validate_query)
from .naive import (GapInstance, SubsetOracle, brute_count_satisfying,
                    brute_relevance, brute_shapley, brute_shapley_all,
                    eval_boolean, gen_gap_instance)
from .parsing import (format_database, format_fact, format_query,
                      format_schema, parse_fact_reference, parse_facts,
                      parse_query, parse_schema)
from .prob import brute_prob, prob_eval, prob_eval_hierarchical
from .relevance import (RelevanceResult, RelevanceWitness, relevance,
                        shapley_is_zero)
from .rewriting import (FilterStep, MaterialiseStep, RewriteStep,
                        RewriteTrace, rewrite, shapley_exo, shapley_exo_all)
from .structure import (PathWitness, TripletWitness, Verdict, VerdictKind,
                        classify, classify_query, find_non_hierarchical_triplet,
                        has_non_hierarchical_path, is_hierarchical,
                        is_polarity_consistent, is_self_join_free)

__version__ = "0.1.0"

__all__ = [
    "Atom", "CQNeg", "Const", "Database", "Fact", "FilterStep",
    "GapInstance", "MaterialiseStep", "PathWitness", "Provenance", "Query",
    "RelationSym", "RelevanceResult", "RelevanceWitness", "RewriteStep",
    "RewriteTrace", "SamplingPlan", "Schema", "SubsetOracle",
    "TripletWitness", "UCQNeg", "Var", "Verdict", "VerdictKind",
    "active_domain", "brute_count_satisfying", "brute_prob",
    "brute_relevance", "brute_shapley", "brute_shapley_all", "classify",
    "classify_query", "count_satisfying_subsets", "disjuncts_of",
    "eval_boolean", "find_non_hierarchical_triplet", "format_database",
    "format_fact", "format_query", "format_schema", "gen_gap_instance",
    "has_non_hierarchical_path", "is_hierarchical",
    "is_polarity_consistent", "is_self_join_free",
    "make_plan", "parse_fact_reference", "parse_facts", "parse_query",
    "parse_schema", "prob_eval", "prob_eval_hierarchical", "relevance",
    "rewrite", "shapley_additive_fpras", "shapley_exact",
    "shapley_exact_all", "shapley_exo", "shapley_exo_all",
    "shapley_is_zero", "single_disjunct", "validate_database",
    "validate_query",
    "ShapfactError", "InputError", "RefusedError", "InternalError",
    "QuerySyntaxError", "SchemaSyntaxError", "UnknownRelationError",
    "ArityError", "SafetyError", "ReservedNameError", "DuplicateFactError",
    "ProvenanceError", "BadProbabilityError", "UnknownFactError",
    "FactNotEndogenousError",
    "UnsupportedQueryError", "SelfJoinError", "NotHierarchicalError",
    "HasNonHierPathError", "NotPolarityConsistentError", "CapExceededError",
    "BlowupExceededError",
]

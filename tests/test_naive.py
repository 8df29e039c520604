"""Reference-engine tests.

The subset-enumeration engine is the trust anchor for everything else, so
this file checks it directly against the permutation definition of the
value (feasible only for the tiniest instances), against a literal
reference that evaluates the query on every coalition, against the Shapley
axioms and against hand-worked cases, rather than against other engines.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (STAFF_Q1_SAT_COUNTS, STAFF_Q1_VALUES, random_instance,
                      random_union_instance, staff_fact)
from shapfact.errors import (CapExceededError, FactNotEndogenousError,
                             InputError)
from shapfact.model import (Database, Fact, Provenance, RelationSym, Var,
                            disjuncts_of)
from shapfact import naive
from shapfact.naive import (DEFAULT_CAP, SubsetOracle, _index, _match,
                            _weigh, brute_count_satisfying, brute_relevance,
                            brute_shapley, brute_shapley_all, eval_boolean,
                            gen_gap_instance, hom_profiles,
                            iter_homomorphisms)
from shapfact.parsing import parse_facts, parse_query, parse_schema
from shapfact.relevance import relevance


def permutation_shapley(db, query, fact):
    """The definition, literally: average the marginal contribution of
    ``fact`` over every permutation of the endogenous facts."""
    endo = db.endogenous
    exo = tuple(db.exogenous)

    def truth(subset):
        return eval_boolean(exo + subset, query)

    total = Fraction(0)
    n = 0
    for perm in itertools.permutations(endo):
        i = perm.index(fact)
        before = perm[:i]
        total += int(truth(before + (fact,))) - int(truth(before))
        n += 1
    return total / n


def test_subset_formula_equals_permutation_definition():
    rng = random.Random(97)
    for _ in range(25):
        db, query = random_instance(rng, max_endo=5)
        for fact in db.endogenous:
            assert brute_shapley(db, query, fact) \
                == permutation_shapley(db, query, fact)


def test_weights_cover_all_coalitions():
    # a fact that gains in each of the C(n-1, k) coalitions of every size
    # k gains in every permutation, so the weights account for each
    # permutation exactly once
    for n in range(1, 9):
        assert _weigh([math.comb(n - 1, k) for k in range(n)]) == 1


def _world(*facts_text):
    schema = parse_schema("relation R/1\nrelation S/2")
    return parse_facts("\n".join(facts_text), schema)


def test_eval_boolean_semantics():
    q = parse_query("q() :- R(x), not S(x, B).")
    assert eval_boolean(_world("endo R(A)"), q)
    assert not eval_boolean(_world("endo R(A)", "endo S(A, B)"), q)
    assert eval_boolean(_world("endo R(A)", "endo S(C, B)"), q)


def test_hom_profiles_ignore_exogenous_blocked_images():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("endo R(a)\nexo S(a)", schema)
    q = parse_query("q() :- R(x), not S(x).", schema)
    # the only candidate mapping hits the exogenous S(a), which can never
    # be absent, so no profile survives
    assert hom_profiles(db, q) == []


def test_staff_q1_values(staff_db, q1):
    values = brute_shapley_all(staff_db, q1)
    got = {(f.relation.name, f.args): v for f, v in values.items()}
    assert got == STAFF_Q1_VALUES


def test_staff_q1_counts(staff_db, q1):
    counts = brute_count_satisfying(staff_db, q1)
    assert counts == STAFF_Q1_SAT_COUNTS


def test_exogenous_fact_is_not_a_player(staff_db, q1):
    stud = staff_fact(staff_db, "Stud", "Adam")
    with pytest.raises(FactNotEndogenousError):
        brute_shapley(staff_db, q1, stud)


def _unary_db(n):
    schema = parse_schema("relation R/1")
    lines = "\n".join(f"endo R(c{i})" for i in range(n))
    return parse_facts(lines, schema), parse_query("q() :- R(x).", schema)


def test_cap_refusal():
    # refused before any profile is built
    db, q = _unary_db(DEFAULT_CAP + 1)
    with pytest.raises(CapExceededError):
        SubsetOracle(db, q)
    # a raised cap unlocks an instance: refused one below its size, valued
    # at its size
    n = 6
    db, q = _unary_db(n)
    with pytest.raises(CapExceededError):
        brute_shapley(db, q, db.endogenous[0], cap=n - 1)
    assert brute_shapley(db, q, db.endogenous[0], cap=n) == Fraction(1, n)


def test_relevance_witness_replays():
    rng = random.Random(4242)
    exo_sets = 0
    for _ in range(40):
        db, query = random_instance(rng, max_endo=6)
        exo = tuple(db.exogenous)
        if exo:
            exo_sets += 1
        for fact in db.endogenous:
            rel = brute_relevance(db, query, fact)
            if rel.pos_witness is not None:
                world = exo + tuple(rel.pos_witness)
                assert not eval_boolean(world, query)
                assert eval_boolean(world + (fact,), query)
            if rel.neg_witness is not None:
                world = exo + tuple(rel.neg_witness)
                assert eval_boolean(world, query)
                assert not eval_boolean(world + (fact,), query)
            assert rel.relevant == (rel.pos_witness is not None
                                    or rel.neg_witness is not None)
    assert exo_sets > 0  # the generator did exercise exogenous facts


def test_relevance_iff_nonzero_value_here():
    # over all facts, relevance and a nonzero value coincide for the
    # subset oracle regardless of polarity structure
    rng = random.Random(777)
    for _ in range(30):
        db, query = random_instance(rng, max_endo=6)
        for fact in db.endogenous:
            relevant = brute_relevance(db, query, fact).relevant
            assert relevant == (brute_shapley(db, query, fact) != 0)


# ---------------------------------------------------------------------------
# the oracle against a literal reference, and the Shapley axioms
# ---------------------------------------------------------------------------

def literal_reference(db, query):
    """Every coalition evaluated by ``eval_boolean`` on ``exogenous ∪ E``,
    with no profiles and no shared scan: the satisfying counts by size,
    each fact's value by the subset formula, and each fact's lowest
    positive and lowest negative flip."""
    endo, exo = db.endogenous, tuple(db.exogenous)
    n = len(endo)

    def coalition(mask):
        return tuple(f for i, f in enumerate(endo) if mask >> i & 1)

    truth = [eval_boolean(exo + coalition(mask), query)
             for mask in range(1 << n)]
    counts = [0] * (n + 1)
    for mask, ok in enumerate(truth):
        if ok:
            counts[bin(mask).count("1")] += 1
    values, witnesses = {}, {}
    for i, fact in enumerate(endo):
        value = Fraction(0)
        pos = neg = None
        for mask in range(1 << n):
            if mask >> i & 1:
                continue
            before, after = truth[mask], truth[mask | 1 << i]
            k = bin(mask).count("1")
            weight = Fraction(math.factorial(k) * math.factorial(n - 1 - k),
                              math.factorial(n))
            value += weight * (int(after) - int(before))
            if after and not before and pos is None:
                pos = coalition(mask)
            if before and not after and neg is None:
                neg = coalition(mask)
        values[fact] = value
        witnesses[fact] = (pos, neg)
    return counts, values, witnesses


def _draws(seed, count, max_endo):
    """Seeded draws, alternating single rules and unions of two rules."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            yield random_union_instance(rng, max_endo=max_endo)
        else:
            yield random_instance(rng, max_endo=max_endo)


def test_oracle_matches_the_literal_reference():
    nontrivial = 0
    for db, query in _draws(8080, 240, max_endo=6):
        counts, values, witnesses = literal_reference(db, query)
        assert brute_count_satisfying(db, query) == counts
        assert brute_shapley_all(db, query) == values
        for fact in db.endogenous:
            assert brute_shapley(db, query, fact) == values[fact]
            rel = brute_relevance(db, query, fact)
            assert (rel.pos_witness, rel.neg_witness) == witnesses[fact]
            assert rel.pos_relevant == (witnesses[fact][0] is not None)
            assert rel.neg_relevant == (witnesses[fact][1] is not None)
        nontrivial += any(values.values())
    assert nontrivial >= 85  # 87 of the 240 draws give a nonzero value


def _assert_matches_reference(db, query):
    """The oracle's counts, values and witnesses equal
    ``literal_reference``'s; returns the values."""
    counts, values, witnesses = literal_reference(db, query)
    assert brute_count_satisfying(db, query) == counts
    assert brute_shapley_all(db, query) == values
    for fact in db.endogenous:
        rel = brute_relevance(db, query, fact)
        assert (rel.pos_witness, rel.neg_witness) == witnesses[fact]
    return values


def test_no_endogenous_facts():
    schema = parse_schema("relation R/1")
    db = parse_facts("exo R(a)", schema)
    for text, counts in (("q() :- R(x).", [1]), ("q() :- R(B).", [0])):
        query = parse_query(text, schema)
        assert _assert_matches_reference(db, query) == {}
        assert brute_count_satisfying(db, query) == counts


def test_profile_with_a_fact_both_positive_and_negated():
    # each endogenous D fact gives the profile ({i}, {i}), which holds on no
    # coalition: the table must apply the negated mask even where the
    # positive one already names the fact
    schema = parse_schema("relation D/1\nrelation E/1")
    db = parse_facts("endo D(a)\nendo D(b)\nexo D(c)\nendo E(a)", schema)
    query = parse_query("q() :- D(x), not D(x).", schema)
    assert ((0,), (0,)) in hom_profiles(db, query)
    assert brute_count_satisfying(db, query) == [0, 0, 0, 0]
    assert not any(_assert_matches_reference(db, query).values())
    # beside a rule that can fire, the shared profile must still add nothing
    union = parse_query("q() :- D(x), not D(x).\nq() :- E(x), not D(x).",
                        schema)
    values = _assert_matches_reference(db, union)
    assert values[staff_fact(db, "E", "a")] == Fraction(1, 2)


def test_query_true_on_the_exogenous_facts_alone():
    schema = parse_schema("relation R/1\nrelation S/1")
    db = parse_facts("exo R(a)\nendo R(b)\nendo S(b)\nendo S(c)", schema)
    query = parse_query("q() :- R(x), not S(x).", schema)
    assert brute_count_satisfying(db, query) == [1, 3, 3, 1]
    assert not any(_assert_matches_reference(db, query).values())
    for fact in db.endogenous:
        assert not brute_relevance(db, query, fact).relevant


def test_oracle_matches_the_literal_reference_on_multi_digit_tables():
    # 2^9 and 2^10 coalitions: each table and fact mask spans several
    # 30-bit digits of a CPython int
    rng = random.Random(1010)
    draws = nontrivial = 0
    while draws < 20:
        db, query = random_union_instance(rng, max_endo=10)
        if db.n_endogenous < 9:
            continue
        draws += 1
        nontrivial += any(_assert_matches_reference(db, query).values())
    assert nontrivial >= 11  # 12 of the 20 draws give a nonzero value


def test_table_memory_follows_the_stated_formula():
    # the table, the n fact masks and the n + 1 size masks hold about
    # (2n + 2) * 2^n / 8 bytes; a list of 2^n truth values would take
    # 8 * 2^n bytes for its slots alone, about twice that at 16 facts
    schema = parse_schema("relation R/1\nrelation T/1")
    db = parse_facts("\n".join(f"endo R(c{i})\nendo T(c{i})"
                               for i in range(8)), schema)
    query = parse_query("q() :- R(x), not T(x).", schema)
    n = db.n_endogenous
    tracemalloc.start()
    try:
        brute_shapley_all(db, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 16
    assert peak < 1.5 * (2 * n + 2) * 2 ** n / 8  # about 0.3 MB


def test_symmetric_copies_share_their_value():
    # sigma swaps every constant c outside the query with a fresh c_copy,
    # so it is an automorphism of D ∪ sigma(D) that fixes the query, and
    # every fact must be worth as much as its image
    nontrivial = 0
    for db, query in _draws(9191, 160, max_endo=5):
        fixed = {c for rule in disjuncts_of(query) for c in rule.constants}

        def sigma(fact):
            args = tuple(a if a in fixed else f"{a}_copy" for a in fact.args)
            return Fact(fact.relation, args, fact.provenance)

        doubled = Database(db.schema,
                           db.facts + tuple(sigma(f) for f in db.facts))
        values = brute_shapley_all(doubled, query)
        moved = [f for f in db.endogenous if sigma(f) != f]
        for fact in db.endogenous:
            assert values[fact] == values[sigma(fact)]
        nontrivial += any(values[f] for f in moved)
    assert nontrivial >= 25  # 27 of the 160 draws move a valued fact


def test_facts_no_atom_names_are_null_players():
    unnamed = RelationSym("Unnamed", 2)
    null = (Fact(unnamed, ("c0", "c1")), Fact(unnamed, ("c1", "c1")))
    extra = null + (Fact(unnamed, ("c2", "c0"), Provenance.EXOGENOUS),)
    nontrivial = 0
    for db, query in _draws(2727, 160, max_endo=6):
        padded = Database(db.schema.extended([unnamed]), db.facts + extra)
        before = brute_shapley_all(db, query)
        after = brute_shapley_all(padded, query)
        assert after == {**before, **dict.fromkeys(null, 0)}
        for fact in null:
            assert not brute_relevance(padded, query, fact).relevant
        nontrivial += any(before.values())
    assert nontrivial >= 40  # 43 of the 160 draws give a nonzero value


# ---------------------------------------------------------------------------
# the gap family
# ---------------------------------------------------------------------------

def test_gap_instance_shape():
    inst = gen_gap_instance(3)
    assert inst.db.n_endogenous == 7  # 2n + 1
    assert str(inst.query.disjuncts[0]) \
        == "q() :- R(x), S(x, y), not R(y)."
    assert inst.fact.args == ("cx_0",)
    assert inst.db.schema["S"].exogenous_only


def test_gap_size_must_be_positive():
    with pytest.raises(InputError, match="n must be at least 1, got 0"):
        gen_gap_instance(0)


def test_gap_values_small():
    for n in (1, 2, 3):
        inst = gen_gap_instance(n)
        value = brute_shapley(inst.db, inst.query, inst.fact)
        assert value == inst.expected_value
        assert value == Fraction(1, (6, 30, 140)[n - 1])


def test_gap_values_match_closed_form():
    for n in (1, 2, 3, 4):
        inst = gen_gap_instance(n)
        assert inst.expected_value == Fraction(
            math.factorial(n) ** 2, math.factorial(2 * n + 1))


# ---------------------------------------------------------------------------
# the indexed join against a nested-loop reference
# ---------------------------------------------------------------------------

def nested_loop_search(atoms, index, binding):
    """The join without probe tables: at every node, match every tuple of
    every atom's relation and expand the atom with the fewest matches
    first (the earliest on a tie)."""
    if not atoms:
        yield dict(binding)
        return
    best_at, best = 0, None
    for i, atom in enumerate(atoms):
        cands = []
        for args in index.get(atom.relation.name, ()):
            delta = _match(atom, args, binding)
            if delta is not None:
                cands.append(delta)
        if best is None or len(cands) < len(best):
            best_at, best = i, cands
            if not cands:
                return
    rest = atoms[:best_at] + atoms[best_at + 1:]
    for delta in best:
        binding.update(delta)
        yield from nested_loop_search(rest, index, binding)
        for name in delta:
            del binding[name]


# a union with a repeated variable, S(x, x), and a constant, S(A, y)
_REPEATED_SCHEMA = "relation R/1\nrelation S/2\nrelation T/1"
_REPEATED_QUERY = ("q() :- S(x, x), S(x, y), R(y), not T(x).\n"
                   "q() :- S(A, y), R(y), not T(y).")


def _join_draws(seed, count):
    """Seeded draws: single rules, unions of two rules, and the repeated
    variable union over random R and S facts on {A, B, C}."""
    rng = random.Random(seed)
    schema = parse_schema(_REPEATED_SCHEMA)
    repeated = parse_query(_REPEATED_QUERY, schema)
    for i in range(count):
        if i % 3 == 0:
            yield random_instance(rng, max_endo=7, polarity_consistent=True)
        elif i % 3 == 1:
            yield random_union_instance(rng, max_endo=7)
        else:
            # S(x, x) meets S facts with equal and with unequal arguments
            values = "ABC"
            facts = {f"{name}({rng.choice(values)})" for name in "RRTT"}
            facts |= {f"S({v}, {v})" for v in rng.sample(values, 2)}
            facts |= {f"S({rng.choice(values)}, {rng.choice(values)})"
                      for _ in range(rng.randint(2, 7))}
            text = "\n".join(f"{rng.choice(('endo', 'exo'))} {fact}"
                             for fact in sorted(facts))
            yield parse_facts(text, schema), repeated


def _seeded_joins(rule, db):
    """Each positive atom of ``rule`` anchored on each fact it matches,
    with the other positive atoms, as ``relevance`` seeds its search."""
    positives = list(rule.positives)
    for at, anchor in enumerate(positives):
        for fact in db.relation_facts(anchor.relation.name):
            seed = _match(anchor, fact.args, {})
            if seed is not None:
                yield positives[:at] + positives[at + 1:], seed


def test_indexed_join_enumerates_as_the_nested_loop_did():
    several = repeated = 0
    for db, query in _join_draws(6060, 300):
        index = _index(db.facts)
        for rule in disjuncts_of(query):
            joins = [(list(rule.positives), {}), *_seeded_joins(rule, db)]
            for atoms, seed in joins:
                got = list(iter_homomorphisms(atoms, index, seed))
                want = list(nested_loop_search(atoms, _index(db.facts),
                                               dict(seed)))
                assert [list(h.items()) for h in got] \
                    == [list(h.items()) for h in want]
                several += len(got) >= 2
                repeated += len(got) >= 2 and any(
                    sum(isinstance(t, Var) for t in a.terms)
                    > len(a.variables) for a in atoms)
    # 381 of the 2307 joins enumerate at least two assignments, 163 of them
    # through an atom that repeats a variable
    assert several >= 350 and repeated >= 150


def test_relevance_witnesses_do_not_depend_on_the_join(monkeypatch):
    draws = list(_join_draws(7070, 150))
    indexed = [[relevance(db, query, fact) for fact in db.endogenous]
               for db, query in draws]
    monkeypatch.setattr(naive, "_search", nested_loop_search)
    witnessed = 0
    for (db, query), results in zip(draws, indexed):
        assert results == [relevance(db, query, fact)
                           for fact in db.endogenous]
        witnessed += sum(r.witness is not None for r in results)
    assert witnessed >= 150  # 160 of the facts have a witness

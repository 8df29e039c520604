"""Sampled attribution with an additive guarantee.

A fact's Shapley value equals the expectation, over a uniformly random
arrival order of the endogenous facts, of the query's truth gain when the
fact arrives.  Averaging ``m = ceil(2 ln(2/δ) / ε²)`` independent draws of
that ±1/0 quantity gives, by Hoeffding's inequality, an estimate within
``ε`` of the true value with probability at least ``1 - δ``.

The guarantee is *additive*: values smaller than ``ε`` are
indistinguishable from zero here, and indeed on the vanishing-value family
(:func:`shapfact.naive.gen_gap_instance`) this estimator returns exactly 0
while the true value is positive.  That separation is inherent — no
polynomial-time *multiplicative* guarantee is available for such queries —
and is demonstrated, not patched over, in the tests.

Randomness is counter-based for reproducibility: a SplitMix64 stream
drives the single-sample API, and the batch estimator draws from one
Philox stream keyed by the plan's seed, so results depend only on
``seed``.  Instead of materialising a permutation, the batch path draws
one 64-bit *arrival key* per endogenous fact and treats "arrived before f"
as "has a smaller key", which turns a sample into a few vectorised
comparisons against the query's homomorphism profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log
from typing import TYPE_CHECKING, Iterator

from .errors import InputError
from .model import Database, Fact, Query
from .naive import eval_boolean, hom_profiles

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny deterministic 64-bit generator (SplitMix64 finaliser)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform draw from range(n), by rejection."""
        if n <= 0:
            raise ValueError("empty range")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher–Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def substream_key(seed: int, stream: int) -> int:
    """A 64-bit Philox key for one substream of the plan seed; the batch
    estimator samples from substream 0."""
    return SplitMix64((seed + (stream + 1) * _GOLDEN) & _MASK64).next_u64()


@dataclass(frozen=True)
class SamplingPlan:
    """Everything that determines a sampling run (and hence its result)."""

    epsilon: float
    delta: float
    seed: int = 0
    samples: int = 0


def make_plan(epsilon: float, delta: float, seed: int = 0) -> SamplingPlan:
    """Fix the sample budget ``ceil(2 ln(2/δ) / ε²)`` for the requested
    additive accuracy."""
    if not 0 < epsilon < 1:
        raise InputError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta}")
    samples = ceil(2 * log(2 / delta) / (epsilon * epsilon))
    return SamplingPlan(epsilon=epsilon, delta=delta, seed=seed,
                        samples=samples)


def sample_contribution(db: Database, query: Query, fact: Fact,
                        rng: SplitMix64) -> int:
    """One draw of the arrival contribution, the slow literal way: shuffle
    the endogenous facts, take the prefix before ``fact``, and evaluate the
    query without and with it."""
    fact = db.require_endogenous(fact)
    order = list(db.endogenous)
    rng.shuffle(order)
    prefix = order[:order.index(fact)]
    world = list(db.exogenous) + prefix
    before = eval_boolean(world, query)
    after = eval_boolean(world + [fact], query)
    return int(after) - int(before)


def shapley_additive_fpras(db: Database, query: Query, fact: Fact,
                           plan: SamplingPlan) -> tuple[Fraction, SamplingPlan]:
    """Estimate the fact's Shapley value to within ``plan.epsilon`` with
    probability ``1 - plan.delta``; returns the exact sample mean and the
    plan it was produced under."""
    # numpy is imported here, not at module level, so that the commands
    # which never sample do not pay for loading it
    import numpy as np

    fact = db.require_endogenous(fact)
    findex = list(db.endogenous).index(fact)
    profiles = hom_profiles(db, query)
    n = db.n_endogenous
    total = 0
    gen = np.random.Generator(
        np.random.Philox(key=substream_key(plan.seed, 0))
    )
    for rows in _chunks(plan.samples, max(1, 4_000_000 // max(n, 1))):
        keys = gen.integers(0, 1 << 64, size=(rows, n), dtype=np.uint64)
        total += _batch_contribution(keys, profiles, findex)
    return Fraction(total, plan.samples), plan


def _chunks(total: int, size: int) -> Iterator[int]:
    while total > 0:
        yield min(total, size)
        total -= size


def _batch_contribution(keys: np.ndarray,
                        profiles: list[tuple[tuple[int, ...], tuple[int, ...]]],
                        findex: int) -> int:
    """Sum of per-sample contributions for one block of arrival keys.

    A fact is "in the coalition" iff its key is strictly below the
    distinguished fact's key; the distinguished fact itself never is.  A
    profile (P, N) fires on the coalition iff all of P and none of N are
    in; with the fact added, P may additionally contain the fact itself,
    while any profile with the fact in N can never fire.
    """
    import numpy as np

    rows = keys.shape[0]
    before_f = keys < keys[:, findex:findex + 1]
    base = np.zeros(rows, dtype=bool)
    with_f = np.zeros(rows, dtype=bool)
    for pos, neg in profiles:
        neg_ok = (~before_f[:, list(neg)].any(axis=1) if neg
                  else np.ones(rows, dtype=bool))
        # the coalition never contains the fact itself, so a profile
        # requiring it is automatically false on the base side
        base_ok = (before_f[:, list(pos)].all(axis=1) if pos
                   else np.ones(rows, dtype=bool))
        base |= base_ok & neg_ok
        if findex in neg:
            continue  # cannot fire once the fact is present
        pos_rest = [i for i in pos if i != findex]
        add_ok = (before_f[:, pos_rest].all(axis=1) if pos_rest
                  else np.ones(rows, dtype=bool))
        with_f |= add_ok & neg_ok
    return int(with_f.sum()) - int(base.sum())

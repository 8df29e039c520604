"""Sampled attribution with an additive guarantee.

A fact's Shapley value equals the expectation, over a uniformly random
arrival order of the endogenous facts, of the query's truth gain when the
fact arrives.  Every sampled order credits each fact with its own gain, so
one matrix of ``m = ceil(2 ln(2/δ) / ε²)`` orders values all facts at once
(permutation sampling, Castro, Gómez & Tejada 2009).  By Hoeffding's
inequality each fact's mean is within ``ε`` of its value with probability
at least ``1 - δ``.  That guarantee holds per fact, not for all facts
together: a simultaneous one over ``n`` facts would need, by a union
bound, ``ceil(2 ln(2n/δ) / ε²)`` orders.

The guarantee is *additive*: values smaller than ``ε`` are
indistinguishable from zero here, and indeed on the vanishing-value family
(:func:`shapfact.naive.gen_gap_instance`) this estimator returns exactly 0
while the true value is positive.  That separation is inherent — no
polynomial-time *multiplicative* guarantee is available for such queries —
and is demonstrated, not patched over, in the tests.

Randomness is counter-based for reproducibility: an order is a row of one
64-bit *arrival key* per endogenous fact, drawn from one Philox stream
keyed by the plan's seed, so results depend only on ``seed``.  Sorting a
row gives its order; equal keys, which 64-bit draws make vanishingly rare,
arrive in fact order.  A profile (P, N) of :func:`shapfact.naive.hom_profiles`
holds on the facts of the first ``s`` slots iff every rank in P is below
``s`` and none in N is; a difference array over these intervals gives the
query's truth after each arrival, and each change is the gain of the fact
arriving in that slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import CapExceededError, InputError
from .model import Database, Fact, Query
from .naive import hom_profiles

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the most bytes one chunk of sampled rows holds at once (see row_bytes):
# small, because a chunk is live memory on every call, and a larger one
# saves only a few numpy calls per chunk
_CHUNK_BYTES = 1 << 18

#: Refuse a sampling run that would draw more arrival keys (sampled orders
#: times endogenous facts) than this; read when each run starts.  A 2-core
#: Xeon draws about ten million keys a second over 60 facts, so the cap is
#: a run of about two minutes.
ARRIVAL_KEY_CAP = 1_000_000_000


def _philox_key(seed: int) -> int:
    """The 64-bit Philox key of a plan seed: the SplitMix64 finaliser
    applied to ``seed + 2 * golden``."""
    z = (seed + 2 * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SamplingPlan:
    """Everything that determines a sampling run (and hence its result):
    the additive accuracy ``epsilon``, the failure probability ``delta``
    and the ``seed``.  The number of sampled orders, ``samples``, is
    derived as ``ceil(2 ln(2/δ) / ε²)``.  A plan refuses with
    :class:`InputError` an ε or δ outside (0, 1), and an ε or δ so small
    that this budget is not a finite number."""

    epsilon: float
    delta: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise InputError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise InputError(f"delta must be in (0, 1), got {self.delta}")
        # the budget is computed here once, so that an epsilon or delta
        # too small for it fails when the plan is made
        try:
            self.samples
        except (ZeroDivisionError, OverflowError):
            raise InputError(f"epsilon {self.epsilon} and delta {self.delta} "
                             f"give no finite sample budget") from None

    @property
    def samples(self) -> int:
        return ceil(2 * log(2 / self.delta) / (self.epsilon * self.epsilon))


def make_plan(epsilon: float, delta: float, seed: int = 0) -> SamplingPlan:
    """The plan for the requested additive accuracy; the same as
    ``SamplingPlan(epsilon, delta, seed)``."""
    return SamplingPlan(epsilon, delta, seed)


def shapley_additive_fpras(db: Database, query: Query, plan: SamplingPlan
                           ) -> tuple[dict[Fact, Fraction], SamplingPlan]:
    """Estimate every endogenous fact's Shapley value, each to within
    ``plan.epsilon`` with probability ``1 - plan.delta``; returns the exact
    sample means and the plan they were produced under.

    Refuses with :class:`CapExceededError`, before drawing anything, a plan
    whose orders over the endogenous facts hold more arrival keys than
    :data:`ARRIVAL_KEY_CAP`."""
    n = db.n_endogenous
    samples = plan.samples
    if samples * n > ARRIVAL_KEY_CAP:
        raise CapExceededError(
            f"{samples} sampled orders of {n} endogenous facts would draw "
            f"{samples * n} arrival keys (cap {ARRIVAL_KEY_CAP})")
    # numpy is imported here, not at module level, so that the commands
    # which never sample do not pay for loading it
    import numpy as np

    profiles = hom_profiles(db, query)
    # rank column n reads -1 and column n + 1 reads n: the pads of P and N
    pos = _padded([p for p, _ in profiles], n)
    neg = _padded([m for _, m in profiles], n + 1)
    gen = np.random.Generator(np.random.Philox(key=_philox_key(plan.seed)))
    totals = np.zeros(n, dtype=np.int64)
    # the most one sampled row holds at once, in 8-byte entries: four per
    # fact (key, slot, rank, difference array) and three per profile (start,
    # stop, and one rank being folded in)
    row_bytes = 8 * (4 * n + 3 * len(profiles))
    for rows in _chunks(samples, _CHUNK_BYTES // max(row_bytes, 1)):
        order = np.argsort(
            gen.integers(0, 1 << 64, size=(rows, n), dtype=np.uint64),
            axis=1, kind="stable")
        rank = np.empty((rows, n + 2), dtype=np.intp)
        rank[:, n], rank[:, n + 1] = -1, n
        np.put_along_axis(rank, order, np.arange(n), axis=1)
        # a profile holds after the first s arrivals iff start <= s < stop;
        # slot s of row r is entry r * (n + 2) + s of one difference array
        offset = np.arange(1, rows * (n + 2), n + 2)[:, None]
        start = _fold(np.maximum, rank, pos, offset)
        stop = _fold(np.minimum, rank, neg, offset)
        np.maximum(stop, start, out=stop)
        marks = np.bincount(start.ravel(), minlength=rows * (n + 2))
        marks -= np.bincount(stop.ravel(), minlength=rows * (n + 2))
        held = marks.reshape(rows, n + 2).cumsum(axis=1)[:, :n + 1] > 0
        gain = np.diff(held.view(np.int8), axis=1)
        totals += np.bincount(order[gain > 0], minlength=n)
        totals -= np.bincount(order[gain < 0], minlength=n)
    values = {f: Fraction(int(t), samples)
              for f, t in zip(db.endogenous, totals)}
    return values, plan


def _padded(groups: list[tuple[int, ...]], pad: int) -> np.ndarray:
    """The index groups as the rows of one array, padded with ``pad``."""
    import numpy as np

    width = max([1, *map(len, groups)])
    return np.array([g + (pad,) * (width - len(g)) for g in groups],
                    dtype=np.intp).reshape(len(groups), width)


def _fold(extreme: Callable, rank: np.ndarray, columns: np.ndarray,
          offset: np.ndarray) -> np.ndarray:
    """Per row, ``extreme`` (maximum or minimum) of the ranks of each
    padded index group, plus ``offset``."""
    out = rank[:, columns[:, 0]]
    for column in columns.T[1:]:
        extreme(out, rank[:, column], out=out)
    out += offset
    return out


def _chunks(total: int, size: int) -> Iterator[int]:
    size = max(1, size)
    while total > 0:
        yield min(total, size)
        total -= size

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
keyed by the plan's seed, so results depend only on ``seed``.  A row's
order is its facts sorted by key, equal keys in fact order.  To find it,
each key's low ``⌈log₂ n⌉`` bits are replaced by its fact's index and the
packed row is sorted by value, which puts any two keys that differ in
their high bits in key order.  A row where two keys share their high bits
(for 64-bit draws, a chance of about ``n² / 2^(65 - ⌈log₂ n⌉)``) is
sorted again, stably, by its full keys.  A profile (P, N) of
:func:`shapfact.naive.hom_profiles` holds on the facts of the first ``s``
slots iff every rank in P is below ``s`` and none in N is; a difference
array over these intervals gives the query's truth after each arrival,
and each change is the gain of the fact arriving in that slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log
from typing import TYPE_CHECKING, Iterator

from .errors import CapExceededError, InputError
from .model import Database, Fact, Query
from .naive import hom_profiles

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the most bytes one chunk of sampled rows holds at once (see row_bytes),
# kept small because a chunk is live memory on every call.  On the 56-fact
# Q_HARD instance of perfbench's hard_sampled workload (a 2-core Xeon),
# a one-row chunk took 45-60 us, the fixed cost of its numpy calls, and a
# 76-row chunk 235-310 us; chunks of ten times the rows cost no less per
# row (3.7-4.2 us against 3.1-4.1 us)
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
    # ranks count from 1: column n reads 0 and column n + 1 reads n + 1,
    # the pads of P and N
    pos = _padded([p for p, _ in profiles], n)
    neg = _padded([m for _, m in profiles], n + 1)
    gen = np.random.Generator(np.random.Philox(key=_philox_key(plan.seed)))
    totals = np.zeros(n)
    # the most one chunk holds at once, per row in 8-byte entries: three
    # per rank column (n facts and two pads) and one more, for the live
    # ones of the key, the packed key, the rank, the difference array, its
    # running sum and the row's offset; and per profile, a start, a stop
    # and the ranks of one padded group
    width = max(len(pos), len(neg))
    row_bytes = 8 * (3 * n + 7 + (2 + width) * len(profiles))
    for rows in _chunks(samples, _CHUNK_BYTES // max(row_bytes, 1)):
        totals += _gains(gen, rows, n, pos, neg)
    values = {f: Fraction(int(t), samples)
              for f, t in zip(db.endogenous, totals)}
    return values, plan


def _gains(gen: np.random.Generator, rows: int, n: int, pos: np.ndarray,
           neg: np.ndarray) -> np.ndarray:
    """Each fact's total truth gain over ``rows`` orders drawn from
    ``gen``, given the profiles' padded P and N columns."""
    import numpy as np

    # a packed key keeps a key's high bits and holds its fact in the rest
    low = np.uint64((1 << max(n - 1, 0).bit_length()) - 1)
    keys = gen.integers(0, 1 << 64, size=(rows, n), dtype=np.uint64)
    packed = keys & ~low
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort(axis=1)
    # keys of a row that share their high bits are put in order by a stable
    # sort of the row's full keys; the first test also pairs a row's last
    # key with the next row's first, which at worst costs the second test
    flat = packed.reshape(-1)
    if ((flat[1:] ^ flat[:-1]) <= low).any():
        tied = ((packed[:, 1:] ^ packed[:, :-1]) <= low).any(axis=1)
        packed[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    del keys, flat
    packed &= low
    order = packed.view(np.int64)
    # a profile holds after the first s arrivals iff start <= s < stop;
    # slot s of row r is entry r * (n + 2) + s of one difference array
    base = np.arange(0, rows * (n + 2), n + 2)[:, None]
    rank = np.empty((rows, n + 2), dtype=np.intp)
    rank[:, n], rank[:, n + 1] = 0, n + 1
    rank.reshape(-1)[order + base] = np.arange(1, n + 1)
    start = np.maximum.reduce(rank[:, pos], axis=1)
    start += base
    stop = np.minimum.reduce(rank[:, neg], axis=1)
    stop += base
    np.maximum(stop, start, out=stop)
    del rank, base
    marks = np.bincount(start.ravel(), minlength=rows * (n + 2))
    marks -= np.bincount(stop.ravel(), minlength=rows * (n + 2))
    del start, stop
    held = (marks.reshape(rows, n + 2).cumsum(axis=1) > 0).view(np.int8)
    gain = np.subtract(held[:, 1:n + 1], held[:, :n], dtype=np.float64)
    return np.bincount(order.ravel(), gain.ravel(), minlength=n)


def _padded(groups: list[tuple[int, ...]], pad: int) -> np.ndarray:
    """The index groups as the columns of one array, padded with ``pad``."""
    import numpy as np

    width = max([1, *map(len, groups)])
    return np.array([g + (pad,) * (width - len(g)) for g in groups],
                    dtype=np.intp).reshape(len(groups), width).T


def _chunks(total: int, size: int) -> Iterator[int]:
    size = max(1, size)
    while total > 0:
        yield min(total, size)
        total -= size

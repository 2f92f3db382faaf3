"""Exact integer-support loss-count distributions.

Binomial construction, mixtures, convolutions, moments, and cdf evaluation.
All distributions store unscaled loss *counts*; monetary severity is applied
downstream by the pricing layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy import stats

# Support points with mass below this are dropped from each tail.  Two ulps of
# unity: anything smaller is indistinguishable from the rounding noise of the
# probability arithmetic itself.  The dropped mass per tail stays orders of
# magnitude below the overall truncation budget.
TRUNCATION_EPS = 2.0 * np.finfo(float).eps

# Hard ceiling on total dropped mass a distribution may carry.
TRUNCATION_BUDGET = 1e-12

__all__ = [
    "DiscreteLossDistribution",
    "TRUNCATION_BUDGET",
    "TRUNCATION_EPS",
    "binomial",
    "convolve",
    "mixture",
    "moments",
    "cdf_at",
    "point_mass",
    "pointwise_distance",
]


@dataclass(frozen=True)
class DiscreteLossDistribution:
    """Probability masses on consecutive integer loss counts.

    Attributes:
        min_count: Smallest support point (in loss counts).
        masses: Mass at counts min_count, min_count+1, ... as a read-only
            float array.
        truncated_below: Mass dropped below min_count.
        truncated_above: Mass dropped above the top of the support.
        components: Generative recipe when the distribution is a weighted
            combination of (truncated) binomials: tuple of
            (weight, trials, prob, support_lo, support_hi).  Lets the
            quantile search re-evaluate the cdf in exact arithmetic when a
            confidence level lands on a cdf plateau that double precision
            cannot order.  None when no such recipe exists.
    """

    min_count: int
    masses: np.ndarray
    truncated_below: float = 0.0
    truncated_above: float = 0.0
    components: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.masses, dtype=np.float64)
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)
        if self.min_count < 0:
            raise ValueError(f"min_count must be >= 0, got {self.min_count}")
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a nonempty 1-D array")
        # Written so that NaN fails each check.
        if not np.all(m >= 0.0):
            raise ValueError("masses must be nonnegative")
        if not (self.truncated_below >= 0.0 and self.truncated_above >= 0.0):
            raise ValueError("truncated mass must be nonnegative")
        total = float(m.sum()) + self.truncated_mass
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"masses + truncated mass sum to {total!r}, not 1")
        if self.truncated_mass > TRUNCATION_BUDGET:
            raise ValueError(
                f"truncated mass {self.truncated_mass:.3e} exceeds budget {TRUNCATION_BUDGET:.0e}"
            )

    @property
    def truncated_mass(self) -> float:
        """Total probability dropped by tail truncation."""
        return self.truncated_below + self.truncated_above

    @property
    def max_count(self) -> int:
        """Largest support point."""
        return self.min_count + len(self.masses) - 1

    @property
    def counts(self) -> np.ndarray:
        """Support points as a float array (for vectorised arithmetic)."""
        return np.arange(self.min_count, self.min_count + len(self.masses), dtype=np.float64)

    @cached_property
    def cdf(self) -> np.ndarray:
        """P[count <= k] for every support point k, anchored below.

        A compensated (Neumaier) running sum, so each prefix is correct to
        the last rounding.  Quantiles of near-degenerate mixtures sit on cdf
        plateaus only ulps wide; a naive cumsum drifts across them.

        The recurrence is formed in whole-array steps with the sequential
        loop's operations in its order, so the bits are the loop's.  Its
        running sum s is the plain left-to-right sum anchored at
        truncated_below, which np.cumsum computes (add.accumulate is
        sequential, not pairwise).  Each step's rounding error comes from
        the loop's own branch, chosen elementwise.  The corrections then
        accumulate from 0.0, again left to right, and prefix i is s_i + c_i.
        """
        m = self.masses
        s = np.cumsum(np.concatenate(([self.truncated_below], m)))
        prev, t = s[:-1], s[1:]
        e = np.where(np.abs(prev) >= np.abs(m), (prev - t) + m, (m - t) + prev)
        c = np.cumsum(np.concatenate(([0.0], e)))[1:]
        return t + c


def point_mass(count: int) -> DiscreteLossDistribution:
    """Distribution concentrated on a single count, with the recipe Binomial(count, 1)."""
    recipe = ((1.0, count, 1.0, count, count),)
    return DiscreteLossDistribution(count, np.array([1.0]), components=recipe)


def binomial(trials: int, prob: float) -> DiscreteLossDistribution:
    """Binomial loss-count distribution with tail truncation.

    For large supports only the region with mass >= TRUNCATION_EPS is stored;
    the dropped tail masses are recorded exactly via the cdf/sf of the
    underlying distribution.

    Args:
        trials: Number of independent exposures (>= 0).
        prob: Per-exposure loss probability in [0, 1].

    Raises:
        ValueError: If prob is outside [0, 1] or trials is negative.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"prob must lie in [0, 1], got {prob}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if trials == 0 or prob == 0.0:
        return point_mass(0)
    if prob == 1.0:
        return point_mass(trials)

    mean = trials * prob
    sd = max(np.sqrt(trials * prob * (1.0 - prob)), 1.0)
    # By Bernstein's inequality each tail beyond mean +- (12 sd + 40) holds
    # less than e^-72, far below TRUNCATION_EPS (about e^-35).
    margin = 12.0 * sd + 40.0
    lo = max(0, int(np.floor(mean - margin)))
    hi = min(trials, int(np.ceil(mean + margin)))
    pmf = stats.binom.pmf(np.arange(lo, hi + 1), trials, prob)

    keep = np.nonzero(pmf >= TRUNCATION_EPS)[0]
    lo_k = lo + int(keep[0])
    hi_k = lo + int(keep[-1])
    masses = pmf[keep[0] : keep[-1] + 1]
    below = float(stats.binom.cdf(lo_k - 1, trials, prob)) if lo_k > 0 else 0.0
    above = float(stats.binom.sf(hi_k, trials, prob)) if hi_k < trials else 0.0
    recipe = ((1.0, trials, float(prob), lo_k, hi_k),)
    return DiscreteLossDistribution(lo_k, masses, below, above, components=recipe)


def mixture(
    dists: list[DiscreteLossDistribution] | tuple[DiscreteLossDistribution, ...],
    weights: list[float] | tuple[float, ...] | np.ndarray,
) -> DiscreteLossDistribution:
    """Pointwise weighted combination over the union of supports.

    Components are accumulated in the order given, so the result is
    deterministic regardless of how the components were produced.
    """
    if len(dists) != len(weights):
        raise ValueError("one weight per distribution required")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    lo = min(d.min_count for d in dists)
    hi = max(d.max_count for d in dists)
    masses = np.zeros(hi - lo + 1)
    below = above = 0.0
    recipe: list[tuple] | None = []
    for d, wi in zip(dists, w):
        if wi == 0.0:
            continue
        start = d.min_count - lo
        masses[start : start + len(d.masses)] += wi * d.masses
        below += wi * d.truncated_below
        above += wi * d.truncated_above
        if recipe is not None and d.components is not None:
            recipe.extend((wi * cw, t, p, s_lo, s_hi) for cw, t, p, s_lo, s_hi in d.components)
        else:
            recipe = None
    components = tuple(recipe) if recipe else None
    return DiscreteLossDistribution(lo, masses, below, above, components=components)


def convolve(
    d1: DiscreteLossDistribution,
    d2: DiscreteLossDistribution,
) -> DiscreteLossDistribution:
    """Distribution of the sum of independent draws from d1 and d2.

    Direct convolution over the (possibly truncated) supports; exact up to the
    inputs' truncation.
    """
    masses = np.convolve(d1.masses, d2.masses)
    below = d1.truncated_below + d2.truncated_below
    above = d1.truncated_above + d2.truncated_above
    return DiscreteLossDistribution(d1.min_count + d2.min_count, masses, below, above)


def moments(d: DiscreteLossDistribution) -> tuple[float, float]:
    """Mean and variance of the stored pmf, in counts and counts^2.

    The truncated tails contribute at most truncated_mass * range to either
    moment, which is far below every tolerance used here.
    """
    ks = d.counts
    mean = float(ks @ d.masses)
    var = float(((ks - mean) ** 2) @ d.masses)
    return mean, var


def cdf_at(d: DiscreteLossDistribution, k: int) -> float:
    """P[count <= k]; 0 below the support, 1 - truncated_above at the top."""
    if k < d.min_count:
        return 0.0
    if k >= d.max_count:
        return float(d.cdf[-1])
    return float(d.cdf[k - d.min_count])


# Working precision of the exact cdf, in decimal digits.
_EXACT_DPS = 40


def _mp_binom_cdf(trials: int, prob: float, k: int):
    """Exact lower binomial cdf, efficient in either tail.

    Sums the pmf by ratio recurrence from the anchor point k, downward for a
    lower-tail k and as one minus the upward sum otherwise, stopping once
    terms stop mattering at the working precision.

    The recurrence runs on raw mpmath.libmp values at mp.prec, rounding to
    nearest, with the operations the mpf operators would perform in the
    order they would perform them: t*j*(1-p) / ((trials-j+1)*p) is
    mpf_mul_int, mpf_mul, mpf_mul_int, mpf_div, and the upward step is
    formed the same way.  The bits are the operator API's without its
    per-operation dispatch.
    """
    from mpmath import mp
    from mpmath.libmp import mpf_add, mpf_div, mpf_lt, mpf_mul, mpf_mul_int, round_nearest

    mpf = mp.mpf
    if k < 0:
        return mpf(0)
    if k >= trials:
        return mpf(1)
    if prob == 1.0:
        return mpf(0)
    p = mpf(prob)
    # Once per sum, at the working precision (a module constant would be
    # parsed at 53 bits, a different number).
    one_minus_p = 1 - p
    negligible = mpf("1e-45")._mpf_
    prec, rnd = mp.prec, round_nearest
    lower_tail = k < trials * p
    # Sum from the anchor term t_j0 outward; each step multiplies by the
    # term ratio a*num / (b*den).
    if lower_tail:
        j0, num, den = k, one_minus_p._mpf_, p._mpf_
        ratios = ((j, trials - j + 1) for j in range(k, 0, -1))
    else:
        j0, num, den = k + 1, p._mpf_, one_minus_p._mpf_
        ratios = ((trials - j, j + 1) for j in range(k + 1, trials))
    t = (mp.binomial(trials, j0) * p**j0 * one_minus_p ** (trials - j0))._mpf_
    s = t
    for a, b in ratios:
        t = mpf_div(
            mpf_mul(mpf_mul_int(t, a, prec, rnd), num, prec, rnd),
            mpf_mul_int(den, b, prec, rnd),
            prec,
            rnd,
        )
        s = mpf_add(s, t, prec, rnd)
        if mpf_lt(t, mpf_mul(s, negligible, prec, rnd)):
            break
    s = mp.make_mpf(s)
    return s if lower_tail else 1 - s


@lru_cache(maxsize=4096)
def _component_cdf(trials: int, prob: float, k: int):
    """_mp_binom_cdf at _EXACT_DPS digits, summed once per (trials, prob, k).

    A plateau search clamps k to each component's support, so across one
    band it asks for the same component value again and again.  The
    precision is set here, so the value does not depend on the caller's.
    """
    from mpmath import mp

    with mp.workdps(_EXACT_DPS):
        return _mp_binom_cdf(trials, prob, k)


def exact_cdf_at(d: DiscreteLossDistribution, k: int):
    """cdf_at re-evaluated in exact (extended-precision) arithmetic.

    Reproduces the anchored-cdf semantics of the stored object: each
    component contributes its exact cdf clamped to its stored support, so
    the value matches what cdf_at computes, free of double rounding.  Only
    available when the distribution carries a component recipe.  The value
    does not depend on the caller's mpmath precision.
    """
    if d.components is None:
        raise ValueError("no generative recipe available for exact evaluation")
    from mpmath import mp

    with mp.workdps(_EXACT_DPS):
        total = mp.mpf(0)
        for weight, trials, prob, s_lo, s_hi in d.components:
            kk = min(max(k, s_lo - 1), s_hi)
            total += mp.mpf(weight) * _component_cdf(trials, prob, kk)
        return total


def pointwise_distance(
    d1: DiscreteLossDistribution,
    d2: DiscreteLossDistribution,
) -> float:
    """Max absolute pmf difference over the union of supports."""
    lo = min(d1.min_count, d2.min_count)
    hi = max(d1.max_count, d2.max_count)
    a = np.zeros(hi - lo + 1)
    b = np.zeros(hi - lo + 1)
    a[d1.min_count - lo : d1.min_count - lo + len(d1.masses)] = d1.masses
    b[d2.min_count - lo : d2.min_count - lo + len(d2.masses)] = d2.masses
    return float(np.max(np.abs(a - b)))

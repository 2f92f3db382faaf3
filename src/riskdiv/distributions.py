"""Exact integer-support loss-count distributions.

Binomial construction, mixtures, convolutions, moments, and cdf evaluation.
All distributions store unscaled loss *counts*; monetary severity is applied
downstream by the pricing layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .binom import pmf_window, small_tail

# Support points with mass below this are dropped from each tail.  Two ulps of
# unity: anything smaller is indistinguishable from the rounding noise of the
# probability arithmetic itself.  The dropped mass per tail stays orders of
# magnitude below the overall truncation budget.
TRUNCATION_EPS = 2.0 * np.finfo(float).eps

# Hard ceiling on total dropped mass a distribution may carry.
TRUNCATION_BUDGET = 1e-12

# ln(2**54 / TRUNCATION_EPS): the log tail bound of binomial's computed window.
_BERNSTEIN_L = math.log(2.0**54 / TRUNCATION_EPS)

__all__ = [
    "DiscreteLossDistribution",
    "TRUNCATION_BUDGET",
    "TRUNCATION_EPS",
    "binomial",
    "convolve",
    "mixture",
    "moments",
    "cdf_at",
    "compensated_cdf",
    "point_mass",
    "weighted_masses",
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
    """

    min_count: int
    masses: np.ndarray
    truncated_below: float = 0.0
    truncated_above: float = 0.0

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
        """P[count <= k] for every support point k: compensated_cdf anchored at truncated_below."""
        return compensated_cdf(self.truncated_below, self.masses)


def compensated_cdf(anchor: float, masses: np.ndarray) -> np.ndarray:
    """The running sums anchor + masses[0] + ... + masses[i], each correct to the last rounding.

    A compensated (Neumaier) running sum.  Quantiles of near-degenerate
    mixtures sit on cdf plateaus only ulps wide; a naive cumsum drifts
    across them.

    The recurrence is formed in whole-array steps with the sequential
    loop's operations in its order, so the bits are the loop's.  Its
    running sum s is the plain left-to-right sum from the anchor, which
    np.cumsum computes (add.accumulate is sequential, not pairwise).  Each
    step's rounding error comes from the loop's own branch, chosen
    elementwise.  The corrections then accumulate from 0.0, again left to
    right, and prefix i is s_i + c_i.  A mass of exactly 0.0 leaves s
    unchanged and adds an error of 0.0, so dropping zero masses changes no
    other prefix's bits.
    """
    s = np.cumsum(np.concatenate(([anchor], masses)))
    prev, t = s[:-1], s[1:]
    e = np.where(np.abs(prev) >= np.abs(masses), (prev - t) + masses, (masses - t) + prev)
    c = np.cumsum(np.concatenate(([0.0], e)))[1:]
    return t + c


def point_mass(count: int) -> DiscreteLossDistribution:
    """Distribution concentrated on a single count."""
    return DiscreteLossDistribution(count, np.array([1.0]))


def binomial(trials: int, prob: float) -> DiscreteLossDistribution:
    """Binomial loss-count distribution with tail truncation.

    For large supports only the region with mass >= TRUNCATION_EPS is stored.
    The pmf comes from binom.pmf_window over a window wide enough that the
    mass beyond each side is below 2**-105, a quarter ulp of the cut.  Each
    dropped tail is the sum of the window's points outside the stored
    region, so it is recorded to that accuracy, and every value is divided
    by the window's total.

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
    sd = max(math.sqrt(trials * prob * (1.0 - prob)), 1.0)
    # Bernstein's inequality bounds each tail beyond mean +- t by
    # exp(-t^2 / (2 (sd^2 + t/3))).  The margin is the t that sets this to
    # TRUNCATION_EPS * 2**-54 = 2**-105, so every point outside the window
    # falls far below the cut, and the window holds each dropped tail up to
    # that much mass.
    margin = _BERNSTEIN_L / 3.0 + math.sqrt(_BERNSTEIN_L**2 / 9.0 + 2.0 * _BERNSTEIN_L * sd * sd)
    lo = max(0, math.floor(mean - margin))
    hi = min(trials, math.ceil(mean + margin))
    pmf = pmf_window(trials, prob, lo, hi)

    keep = np.nonzero(pmf >= TRUNCATION_EPS)[0]
    i, e = int(keep[0]), int(keep[-1]) + 1
    masses = pmf[i:e]
    below = float(pmf[:i].sum()) if i else 0.0
    above = float(pmf[e:].sum()) if e < len(pmf) else 0.0
    # The window holds all but 2**-104 of the mass, so dividing by its sum
    # cancels the error common to every term (the anchor's).
    total = float(masses.sum()) + below + above
    return DiscreteLossDistribution(lo + i, masses / total, below / total, above / total)


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
    return DiscreteLossDistribution(lo, *weighted_masses(zip(w, dists), np.arange(lo, hi + 1)))


def weighted_masses(terms, counts: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(weight, distribution) pairs summed over the ascending counts: (masses, below, above).

    counts holds every count of each term's window, consecutively.  Each
    count's mass and each truncated tail are summed over the terms in the
    order given, from 0.0, and a term of weight 0.0 is skipped, so the bits
    depend on the terms and their order, not on which counts are listed.
    """
    masses = np.zeros(len(counts))
    below = above = 0.0
    for wi, d in terms:
        if wi == 0.0:
            continue
        start = int(np.searchsorted(counts, d.min_count))
        masses[start : start + len(d.masses)] += wi * d.masses
        below += wi * d.truncated_below
        above += wi * d.truncated_above
    return masses, below, above


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
    mean = float((ks * d.masses).sum())
    var = float(((ks - mean) ** 2 * d.masses).sum())
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
    lower-tail k and as one minus the upward sum otherwise, at the caller's
    mpmath precision.

    The sum stops at the first term t that leaves it unchanged (s + t == s).
    The terms shrink away from the anchor, so every later term is no larger
    and, rounding being monotone, leaves the sum unchanged too: the stop
    changes no bit.
    """
    from mpmath import mp

    mpf = mp.mpf
    if k < 0:
        return mpf(0)
    if k >= trials:
        return mpf(1)
    if prob == 1.0:
        return mpf(0)
    p = mpf(prob)
    # Once per sum, at the working precision.
    one_minus_p = 1 - p
    lower_tail = k < trials * p
    # Sum from the anchor term t_j0 outward; each step multiplies by the
    # term ratio a*num / (b*den).
    if lower_tail:
        j0, num, den = k, one_minus_p, p
        ratios = ((j, trials - j + 1) for j in range(k, 0, -1))
    else:
        j0, num, den = k + 1, p, one_minus_p
        ratios = ((trials - j, j + 1) for j in range(k + 1, trials))
    t = mp.binomial(trials, j0) * p**j0 * one_minus_p ** (trials - j0)
    s = t
    for a, b in ratios:
        t = t * a * num / (den * b)
        grown = s + t
        if grown == s:
            break
        s = grown
    return s if lower_tail else 1 - s


@lru_cache(maxsize=4096)
def _component_cdf(trials: int, prob: float, k: int):
    """_mp_binom_cdf at _EXACT_DPS digits, summed once per (trials, prob, k).

    Only a probe the residual cannot decide (cdf_reaches) asks for these.
    A plateau search clamps k to each component's support, so across one
    band such probes ask for the same component value again and again.  The
    precision is set here, so the value does not depend on the caller's.
    """
    from mpmath import mp

    with mp.workdps(_EXACT_DPS):
        return _mp_binom_cdf(trials, prob, k)


def exact_cdf_at(recipe: tuple, k: int):
    """cdf_at of the law a component recipe describes, in exact (extended-precision) arithmetic.

    recipe is the state terms' components (models.StateTerm.component).
    Reproduces the anchored-cdf semantics of the stored law: each component
    contributes its exact cdf clamped to its stored support, so the value
    matches what cdf_at computes, free of double rounding.  The value does
    not depend on the caller's mpmath precision.  The quantile search
    reaches it only through cdf_reaches, when the double-precision residual
    cannot order the cdf and alpha.
    """
    from mpmath import mp

    with mp.workdps(_EXACT_DPS):
        total = mp.mpf(0)
        for weight, trials, prob, s_lo, s_hi in recipe:
            kk = min(max(k, s_lo - 1), s_hi)
            total += mp.mpf(weight) * _component_cdf(trials, prob, kk)
        return total


# Range of the binomial tail kernel the residual trusts.  For 0 < prob < 1
# and 0 <= k < trials <= _KERNEL_MAX_TRIALS, binom.small_tail is within
# (2**18 + 2**8·sqrt(trials))·u of the exact tail, relative, with u = 2**-53,
# whenever the tail is a normal double.  Its parts:
# - The anchor, the tail's first term t = exp(z), Loader's saddle point.
#   t >= 2**-1022, so |z| < 747.  bd0's direct branch errs by at most
#   132·u times its value (the cancellation at x/m = 11/9), the partial sums
#   of z by 5·|z|·u, the rest of z and exp by under 100 u: below 2**17 u in
#   all.  Rounding n·p and n·q moves the two deviances by 3·|a − n p|·u more.
# - The recurrence.  A ratio (n − j)/(j + 1)·c, c = prob/(1 − prob), takes
#   two roundings, c itself is within u (the same u each step), and the
#   running product takes one more, so a term i steps from the anchor errs
#   by 4·i·u more than the anchor.
# - The sum: numpy's pairwise sum of positive terms (within 40 u at this
#   length) and the dropped remainder (below u/4).
# Bernstein's inequality with t >= 2**-1022 puts the anchor within
# 473 + 37.7·sd of n p, and small_tail sums at most 501 + 38.7·sd terms,
# sd = sqrt(n p q) <= sqrt(trials) / 2.  So 3·|a − n p| + 4·steps + 41 <=
# 3,465 + 268·sd <= 3,465 + 134·sqrt(trials), and the total fits the bound.
# Measured errors stay within about 1.3e4 u (Bin(25,492,142, 0.8325) at
# k = 21,237,864, where scipy's kernel is off by 5.7e3 u);
# tests/test_distributions.py checks the bound against _mp_binom_cdf.
# Within the range it is at most kappa·u (2**8·sqrt(2**25) < 2**21).
_KERNEL_MAX_TRIALS = 2**25
_KERNEL_KAPPA = 2**18 + 2**21

# Error bound B of the residual, relative to the sum of its terms'
# magnitudes.  Each tail term fl(w_i·T_i) carries the kernel's relative error
# (kappa·u) and one rounding of the product (u); the constant carries one
# rounding of float(Fraction) (u); math.fsum rounds the sum once (u, where a
# running sum would cost gamma_{m+1}, so B does not depend on the number of
# components m); and the sum of magnitudes, also an fsum, is low by at most a
# factor 1 - u.  That is (kappa + 3)·u to first order; the second-order
# terms come to about kappa**2·u**2 < u/4 (kappa·u < 2**-27) and fit in one
# more u.
RESIDUAL_BOUND = (_KERNEL_KAPPA + 4) * 2.0**-53

# The residual decides only beyond this margin as well.  Where the residual
# decides, exact_cdf_at sums at most _KERNEL_MAX_TRIALS terms per component
# at 40 digits (136 bits), so its absolute error stays far below the margin
# and its comparison with alpha has the residual's sign.  The margin also
# covers the absolute rounding of a subnormal product or constant.
_RESIDUAL_FLOOR = 2.0**-100


def _residual_sign(recipe: tuple, k: int, alpha: float) -> bool | None:
    """Whether cdf(k) >= alpha, decided on a small-tail residual in double precision.

    Each component, clamped to its stored support as in exact_cdf_at,
    enters by its tail on the far side of its mean (binom.small_tail): the
    cdf F_i when its clamped count k_i lies below its mean m_i, else the
    survival S_i:

        cdf(k) − alpha = sum_{k_i < m_i} w_i F_i − sum_{k_i >= m_i} w_i S_i
                         + (sum_{k_i >= m_i} w_i − alpha)

    The constant is an exact Fraction of doubles, rounded once.  Structural
    values are constants, not tails: a clamp below 0 gives 0, one at or
    above the trials gives w, and prob = 1 below the trials gives 0 (the
    point mass).  Returns the residual's sign when its magnitude exceeds
    RESIDUAL_BOUND times the sum of the terms' magnitudes plus
    _RESIDUAL_FLOOR, and None when it does not, when a tail is 0, subnormal
    or not a number, or when a component lies outside the kernel's range.
    """
    const = -Fraction(alpha)
    terms = []
    for weight, trials, prob, s_lo, s_hi in recipe:
        kk = min(max(k, s_lo - 1), s_hi)
        if kk < 0 or (prob == 1.0 and kk < trials):
            continue
        if kk >= trials:
            const += Fraction(weight)
            continue
        if trials > _KERNEL_MAX_TRIALS:
            return None
        tail, upper = small_tail(kk, trials, prob)
        if upper:
            const += Fraction(weight)
            weight = -weight
        if not tail >= sys.float_info.min:
            return None
        terms.append(weight * tail)
    terms.append(float(const))
    residual = math.fsum(terms)
    if abs(residual) > RESIDUAL_BOUND * math.fsum(map(abs, terms)) + _RESIDUAL_FLOOR:
        return residual > 0.0
    return None


def cdf_reaches(recipe: tuple, k: int, alpha: float) -> bool:
    """exact_cdf_at(recipe, k) >= alpha, in double precision wherever the error bound decides it.

    The probe of every plateau search, on the state terms' components
    (exact_cdf_at), so the search needs no stored mixture.  It takes the
    small-tail residual's sign (_residual_sign) when the residual's error
    bound decides it, and otherwise compares exact_cdf_at in mpmath, which
    is imported only then.
    """
    sign = _residual_sign(recipe, k, alpha)
    if sign is not None:
        return sign
    from mpmath import mpf

    return exact_cdf_at(recipe, k) >= mpf(alpha)

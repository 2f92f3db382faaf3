"""Quantile-based risk measures on discrete loss-count distributions.

Value-at-Risk, tail Value-at-Risk (two conventions), and the Gaussian
approximation to the binomial VaR.
"""

from __future__ import annotations

import bisect
import math
import statistics
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import distributions, models
from .distributions import DiscreteLossDistribution

__all__ = [
    "MeasureKind",
    "TvarConvention",
    "RiskMeasureSpec",
    "TruncationError",
    "tail_value",
    "var_and_tvar",
    "apply_measure",
    "normal_quantile",
    "gaussian_var_approx",
]


class MeasureKind(str, Enum):
    VAR = "var"
    TVAR = "tvar"


class TvarConvention(str, Enum):
    """How the tail average is taken on a discrete distribution.

    CONDITIONAL: mean count conditional on count >= VaR.  Includes the whole
        probability atom at the VaR point, so the conditioning mass generally
        exceeds 1 - alpha.  This is the convention behind the published
        closed-form tables.
    TAIL_AVERAGE: average of exactly the worst (1 - alpha) fraction of
        outcomes, i.e. the upper-quantile integral split at alpha.  This is
        what sorting simulated losses and averaging the top slice estimates,
        so it is the convention natural to Monte Carlo work.
    """

    CONDITIONAL = "conditional"
    TAIL_AVERAGE = "tail-average"


class TruncationError(ValueError):
    """The requested quantile falls inside a truncated tail."""


@dataclass(frozen=True)
class RiskMeasureSpec:
    """A risk measure: VaR or TVaR at confidence level alpha."""

    kind: MeasureKind
    alpha: float
    convention: TvarConvention = TvarConvention.CONDITIONAL

    def __post_init__(self):
        object.__setattr__(self, "kind", MeasureKind(self.kind))
        object.__setattr__(self, "convention", TvarConvention(self.convention))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


# Width of the cdf band around alpha inside which double precision cannot
# order the plateau of a near-degenerate mixture; crossings this flat are
# re-decided on the small-tail residual (distributions.cdf_reaches), with
# exact arithmetic as its fallback, when every state term has a component.
_PLATEAU_BAND = 1e-11


def _occupied(terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mixture of (weight, law) pairs over its occupied counts: (counts, masses, cdf).

    The occupied counts are the union of the laws' stored windows, merged
    where they overlap or touch; the counts between two windows hold no
    mass and are not stored.  The masses and the anchor are weighted_masses,
    as mixture sums them, and the cdf is compensated_cdf, as the stored
    law's: a zero mass changes no running sum, so every occupied count has
    the stored mixture's bits.
    """
    windows: list[list[int]] = []
    for lo, hi in sorted((d.min_count, d.max_count) for _, d in terms):
        if windows and lo <= windows[-1][1] + 1:
            windows[-1][1] = max(windows[-1][1], hi)
        else:
            windows.append([lo, hi])
    counts = np.concatenate([np.arange(lo, hi + 1) for lo, hi in windows])
    masses, below, _ = distributions.weighted_masses(terms, counts)
    return counts, masses, distributions.compensated_cdf(below, masses)


def _quantile_index(counts: np.ndarray, cdf: np.ndarray, recipe: tuple, alpha: float) -> int:
    """Index of the smallest count whose cdf reaches alpha, decided exactly on a plateau.

    counts and cdf are _occupied's, recipe the terms' components.  If one
    is None, this is the double-precision answer.  Else the band of counts
    whose stored cdf lies within _PLATEAU_BAND of alpha is bisected on the
    exact cdf, which is monotone in k (each component's clamped cdf is, and
    so is their rounded weighted sum): the result is the first count in the
    band whose exact cdf reaches alpha, or the band top, never probed, if
    none does.
    Only occupied counts are probed: between two windows every component is
    clamped as at the last occupied count below, so a count there is never
    the first to reach alpha.  Every probe is distributions.cdf_reaches: a
    double-precision small-tail residual with a derived error bound, and the
    mpmath cdf only where that bound cannot order the cdf and alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if alpha > cdf[-1]:
        raise TruncationError(
            f"alpha={alpha} exceeds the resolvable cdf top {cdf[-1]:.17f}; "
            "tail truncation prevents resolving this quantile"
        )
    if None in recipe:
        return int(np.searchsorted(cdf, alpha))
    lo = int(np.searchsorted(cdf, alpha - _PLATEAU_BAND, side="right"))
    hi = min(int(np.searchsorted(cdf, alpha + _PLATEAU_BAND)), len(cdf) - 1)
    return lo + bisect.bisect_left(
        range(lo, hi), True,
        key=lambda i: distributions.cdf_reaches(recipe, int(counts[i]), alpha),
    )


def tail_value(var_count, at, reached, beyond, total, alpha, convention: TvarConvention):
    """TVaR from the VaR v's atom and the tail beyond it: the one formula of both engines.

    at and reached are the weights of v and of the counts up to it, beyond
    sums count times weight above v, and total is the law's weight.  The
    exact engine passes floats; a simulation passes its integer tallies and
    Fractions, and gets an exact Fraction.

    Raises:
        RuntimeError: If the tail carries no weight.
    """
    if TvarConvention(convention) is TvarConvention.CONDITIONAL:
        # Mean of the outcomes at or beyond v.
        weight, mass = total - reached + at, beyond + var_count * at
    else:
        # Upper-quantile integral: v carries its share of (alpha, 1].
        weight, mass = total * (1 - alpha), beyond + var_count * (reached - alpha * total)
    if not weight > 0:
        raise RuntimeError("empty tail beyond VaR on a valid distribution")
    # Both conventions dominate the VaR mathematically; guard the last ulp.
    return max(mass / weight, var_count)


def var_and_tvar(
    law: DiscreteLossDistribution | list[models.StateTerm],
    alpha: float,
    convention: TvarConvention = TvarConvention.CONDITIONAL,
) -> tuple[int, float]:
    """VaR and TVaR at level alpha, in counts, from one quantile search.

    law is a model's state terms (models.state_terms), read over their
    laws' occupied windows (_occupied), never as a dense array over the
    gaps between them: the VaR, its atom and its cdf have the bits of the
    stored mixture.  A lone distribution is one term of weight 1.0 with no
    component, so its plateaus get the double-precision answer.  VaR is the
    smallest count k with P[count <= k] >= alpha; TVaR is tail_value at the
    VaR, whose sum beyond it is one numpy product-sum over the occupied
    counts above the VaR, not a BLAS dot.  On a plateau the tail average
    takes its VaR-atom share at the decided count, not at the stored cdf's
    crossing, about 1e-13 of mass away.

    Raises:
        TruncationError: If alpha lies beyond the stored cdf top, i.e. the
            quantile cannot be resolved on the truncated support.
    """
    lone = isinstance(law, DiscreteLossDistribution)
    counts, masses, cdf = _occupied([(1.0, law)] if lone else [(t.weight, t.law) for t in law])
    recipe = (None,) if lone else tuple(t.component for t in law)
    idx = _quantile_index(counts, cdf, recipe, alpha)
    var_count = int(counts[idx])
    beyond = (counts[idx + 1 :] * masses[idx + 1 :]).sum()
    tvar = tail_value(var_count, masses[idx], cdf[idx], beyond, 1.0, alpha, convention)
    return var_count, float(tvar)


def apply_measure(d: DiscreteLossDistribution, spec: RiskMeasureSpec) -> float:
    """Evaluate the measure on a count distribution; returns counts."""
    var_count, tvar = var_and_tvar(d, spec.alpha, spec.convention)
    return float(var_count) if spec.kind is MeasureKind.VAR else tvar


def normal_quantile(u: float) -> float:
    """Inverse standard normal cdf, by statistics.NormalDist (Wichura's AS 241).

    Raises:
        ValueError: If u is outside (0, 1).
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {u}")
    return statistics.NormalDist().inv_cdf(u)


def gaussian_var_approx(N: int, n: int, p: float, alpha: float) -> float:
    """Central-limit approximation to the VaR of the iid count total.

    Returns sqrt(N*n*p*(1-p)) * z_alpha + N*n*p in counts.  Degenerate
    probabilities return the deterministic total exactly.  A warning is
    emitted where the normal approximation is known to be poor.
    """
    if p in (0.0, 1.0):
        return float(N * n * p)
    trials = N * n
    if trials < 30 or trials * p <= 5 or trials * (1.0 - p) <= 5:
        warnings.warn(
            "normal approximation is unreliable for so few trials or such extreme p",
            stacklevel=2,
        )
    return math.sqrt(trials * p * (1.0 - p)) * normal_quantile(alpha) + trials * p

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

from . import distributions
from .distributions import DiscreteLossDistribution

__all__ = [
    "MeasureKind",
    "TvarConvention",
    "RiskMeasureSpec",
    "TruncationError",
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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")


# Width of the cdf band around alpha inside which double precision cannot
# order the plateau of a near-degenerate mixture; crossings this flat are
# re-decided in exact arithmetic when the distribution carries a recipe.
_PLATEAU_BAND = 1e-11


def _quantile_index(d: DiscreteLossDistribution, alpha: float) -> int:
    """Index of the smallest count whose cdf reaches alpha, decided exactly on a plateau.

    Without a recipe this is the double-precision answer.  With one, the
    band of points whose stored cdf lies within _PLATEAU_BAND of alpha is
    bisected on the exact cdf, which is monotone in k (each component's
    clamped cdf is, and so is their rounded weighted sum): the result is the
    first index in the band whose exact cdf reaches alpha, or the band top,
    never probed, if none does.  Every probe is distributions.cdf_reaches: a
    double-precision small-tail residual with a derived error bound, and the
    mpmath cdf only where that bound cannot order the cdf and alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    cdf = d.cdf
    if alpha > cdf[-1]:
        raise TruncationError(
            f"alpha={alpha} exceeds the resolvable cdf top {cdf[-1]:.17f}; "
            "tail truncation prevents resolving this quantile"
        )
    if d.components is None:
        return int(np.searchsorted(cdf, alpha))
    lo = int(np.searchsorted(cdf, alpha - _PLATEAU_BAND, side="right"))
    hi = min(int(np.searchsorted(cdf, alpha + _PLATEAU_BAND)), len(cdf) - 1)
    return lo + bisect.bisect_left(
        range(lo, hi), True,
        key=lambda i: distributions.cdf_reaches(d, d.min_count + i, alpha),
    )


def var_and_tvar(
    d: DiscreteLossDistribution,
    alpha: float,
    convention: TvarConvention = TvarConvention.CONDITIONAL,
) -> tuple[int, float]:
    """VaR and TVaR at level alpha, in counts, from one quantile search.

    VaR is the smallest count k with P[count <= k] >= alpha; TVaR is the tail
    average beyond it (see TvarConvention), never below the VaR.

    Raises:
        TruncationError: If alpha lies beyond the stored cdf top, i.e. the
            quantile cannot be resolved on the truncated support.
    """
    idx = _quantile_index(d, alpha)
    ks = d.counts
    m = d.masses
    cdf = d.cdf
    var_count = d.min_count + idx
    if convention is TvarConvention.CONDITIONAL:
        below = cdf[idx - 1] if idx > 0 else d.truncated_below
        tail_prob = 1.0 - float(below)
        if tail_prob <= 0.0:
            raise RuntimeError("empty tail beyond VaR on a valid distribution")
        raw = float((ks[idx:] @ m[idx:]) / tail_prob)
    else:
        # Upper-quantile integral: weight each count by its share of (alpha, 1].
        prev = np.concatenate([[d.truncated_below], cdf[:-1]])
        w = np.clip(np.minimum(cdf, 1.0) - np.maximum(prev, alpha), 0.0, None)
        raw = float((ks @ w) / (1.0 - alpha))
    # Both conventions dominate the VaR mathematically; guard the last ulp.
    return var_count, max(raw, float(var_count))


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

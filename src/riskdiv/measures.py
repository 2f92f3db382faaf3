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
from functools import cached_property, lru_cache

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


class _OneSide:
    """A state term with one nonempty side, read off that side's stored law by lookup.

    Also a lone distribution passed to var_and_tvar.  cdf(k) is the stored
    cdf at k, called for lo <= k < hi; floor is the law's truncated_below,
    the cdf below its window, and top the cdf from hi on.
    """

    def __init__(self, law: DiscreteLossDistribution):
        self.lo, self.hi = law.min_count, law.max_count
        self._masses, self._cdf = law.masses, law.cdf
        self.floor, self.top = law.truncated_below, self._cdf[-1]

    def cdf(self, k: int) -> float:
        return self._cdf[k - self.lo]

    def mass(self, v: int) -> float:
        return self._masses[v - self.lo] if self.lo <= v <= self.hi else 0.0

    def beyond(self, v: int) -> float:
        """Sum of k * mass over the stored counts k > v: one numpy product-sum."""
        start = max(v + 1, self.lo)
        return (np.arange(start, self.hi + 1) * self._masses[start - self.lo :]).sum()


class _TwoSides:
    """A state term X + Y read off its two sides' stored laws, never their convolution.

    X is the shorter side, with masses a at its counts x_i, and Y has masses
    b and the cumulative window C_Y = compensated_cdf(Y.truncated_below, b),
    its stored cdf's bits.  Then

        F(k) = X.truncated_below + sum_i a[i] C_Y(k - x_i),

    where C_Y is Y.truncated_below below its window and its top above it:
    one numpy product-sum of a with C_Y read at k - x_i, each index clipped
    to the window (_read), so a probe costs one product-sum over len(a)
    terms wherever k lies, no sum goes through BLAS, and F is monotone in k
    to the last bit: each read of C_Y is, and the sum always has the same
    shape.  pmf(k) and the tail sums read b and Y's reverse running sums the
    same way.  floor and top are F below and above the window; cdf is
    called for lo <= k < hi.
    """

    def __init__(self, x: DiscreteLossDistribution, y: DiscreteLossDistribution):
        self.lo, self.hi = x.min_count + y.min_count, x.max_count + y.max_count
        self._a, self._xs, self._x_below, self._y = x.masses, x.counts, x.truncated_below, y
        # Index of count k - x_i in an array over Y's counts from y.min_count - 1.
        self._index = np.arange(x.min_count, x.max_count + 1) + (y.min_count - 1)
        self._c = np.concatenate(([y.truncated_below],
                                  distributions.compensated_cdf(y.truncated_below, y.masses)))
        self.floor, self.top = self.cdf(self.lo - 1), self.cdf(self.hi)

    def _read(self, values: np.ndarray, k: int) -> np.ndarray:
        """values at count k - x_i of Y for each count x_i of X, the index clipped to values.

        values[t] belongs to Y's count y.min_count - 1 + t, so its first
        value stands for every count below Y's window and its last for every
        count from its last index on.
        """
        return values.take(k - self._index, mode="clip")

    def cdf(self, k: int) -> float:
        return self._x_below + _add(self._a * self._read(self._c, k))

    @cached_property
    def _b(self) -> np.ndarray:
        return np.concatenate(([0.0], self._y.masses, [0.0]))

    def mass(self, v: int) -> float:
        return _add(self._a * self._read(self._b, v)) if self.lo <= v <= self.hi else 0.0

    @cached_property
    def _y_tails(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, E): S[t] and E[t] sum b and y * b over Y's counts from its t-th on.

        Each is one np.cumsum from Y's top count down (add.accumulate is
        sequential), with 0 past Y's last count.
        """
        y = self._y
        return tuple(np.concatenate((np.cumsum(m[::-1])[::-1], [0.0]))
                     for m in (y.masses, y.counts * y.masses))

    def beyond(self, v: int) -> float:
        """Sum of k * pmf(k) over k > v: sum_i a[i] (x_i S_Y(v - x_i) + E_Y(v - x_i))."""
        if v >= self.hi:
            return 0.0
        v = max(v, self.lo - 1)
        tail, moment = self._y_tails
        return _add(self._a * (self._xs * self._read(tail, v) + self._read(moment, v)))


_add = np.add.reduce


@lru_cache(maxsize=64)
def _term_reader(crisis: tuple[int, float], normal: tuple[int, float]) -> _OneSide | _TwoSides:
    """The reader of the state term with these sides (models.StateTerm), built once per pair.

    Keyed by the sides, as models._state_term is, so every pt column of a
    grid shares its terms' cumulative windows.  64 entries hold the 56
    terms of a T4 grid.
    """
    sides = models.side_laws(crisis, normal)
    if len(sides) == 1:
        return _OneSide(*sides)
    return _TwoSides(*sorted(sides, key=lambda d: len(d.masses)))


def _windows(readers) -> list[tuple[int, int]]:
    """The terms' windows (lo, hi) in order, merged where they overlap or touch.

    The counts between two windows hold no mass.  The merge keeps the
    search's probe at each window's top monotone: a window nested in
    another, such as (1, 53) in (0, 54), would otherwise follow it with a
    lower top.
    """
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted((r.lo, r.hi) for r in readers):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _var_count(windows: list[tuple[int, int]], cdf, recipe: tuple, alpha: float) -> int:
    """The smallest count whose cdf reaches alpha, decided exactly on a plateau.

    windows are the terms' merged windows (_windows), cdf(k) the terms' cdf
    at count k and recipe the terms' components.  The probe reads cdf(k) >=
    alpha, except where every term has a component and cdf(k) lies within
    _PLATEAU_BAND of alpha: there it reads distributions.cdf_reaches, the
    exact cdf's answer.  Both are monotone in k and agree outside the band,
    so the result is the first count in the band whose exact cdf reaches
    alpha, else the first above the band, else the top.  One bisection
    finds the first window whose top reaches alpha, a second the count
    inside it; the top count is never probed.  Between two windows every
    term is constant, so a count there is never the first to reach alpha
    and is not probed.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    top = windows[-1][1]
    if alpha > cdf(top):
        raise TruncationError(
            f"alpha={alpha} exceeds the resolvable cdf top {cdf(top):.17f}; "
            "tail truncation prevents resolving this quantile"
        )
    exact = None not in recipe

    def reaches(k: int) -> bool:
        c = cdf(k)
        if exact and alpha - _PLATEAU_BAND < c < alpha + _PLATEAU_BAND:
            return distributions.cdf_reaches(recipe, k, alpha)
        return c >= alpha

    lo, hi = windows[bisect.bisect_left(windows, True, 0, len(windows) - 1,
                                        key=lambda window: reaches(window[1]))]
    return lo + bisect.bisect_left(range(lo, hi + 1), True, 0, hi - lo, key=reaches)


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

    law is a model's state terms (models.state_terms), each read off its
    sides' stored laws by a reader memoised per pair of sides: a lookup in
    its one side's cdf, or, for two sides, a product-sum over the shorter
    side's window (_TwoSides), never the convolved law or a dense mixture.
    A lone distribution is one term of weight 1.0 with no component, so its
    plateaus get the double-precision answer.  The cdf at count k is
    sum_j w_j F_j(k), in term order; a term whose window misses k adds a
    constant.  VaR is the smallest count k with cdf(k) >= alpha, found by
    bisecting the terms' merged windows (_windows) at their tops, then the
    counts of the one window that crosses, with the exact cdf's probe
    inside the plateau band (_var_count); TVaR is tail_value at the
    VaR, with at = sum_j w_j pmf_j(v) and beyond = sum_j w_j times the
    term's sum of k * pmf_j(k) over k > v.  No sum goes through BLAS.  A
    lone binomial, and so the iid model, is read with the bits of its
    stored law.  On a plateau the tail average takes its
    VaR-atom share at the decided count, not at the double-precision
    crossing, about 1e-13 of mass away.

    Raises:
        TruncationError: If alpha lies beyond the cdf top, i.e. the
            quantile cannot be resolved on the truncated support.
    """
    if isinstance(law, DiscreteLossDistribution):
        terms, recipe = [(1.0, _OneSide(law))], (None,)
    else:
        terms = [(t.weight, _term_reader(t.crisis, t.normal)) for t in law]
        recipe = tuple(t.component for t in law)

    def cdf(k: int) -> float:
        total = 0.0
        for w, r in terms:
            total += w * (r.floor if k < r.lo else r.top if k >= r.hi else r.cdf(k))
        return total

    var_count = _var_count(_windows(r for _, r in terms), cdf, recipe, alpha)
    at = beyond = 0.0
    for w, r in terms:
        at += w * r.mass(var_count)
        beyond += w * r.beyond(var_count)
    tvar = tail_value(var_count, at, cdf(var_count), beyond, 1.0, alpha, convention)
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

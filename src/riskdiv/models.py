"""The three generative portfolio models and their closed-form moments.

Loss counts for a portfolio of N policies, each exposed n times.  Each model
is a law for j, the number of the n exposure rounds in crisis (crisis_rounds),
and given j the count is Binomial(N*j, q) + Binomial(N*(n-j), p):

* iid: j = 0; every exposure loses independently with probability p.
* common shock: one global state draw puts all n rounds in crisis (j = n)
  with probability p_tilde, else none (j = 0).
* per-exposure shock: each round draws its own state for the whole
  portfolio, so j ~ Binomial(n, p_tilde).

Both shock models carry an N-independent variance term: the part of the risk
that diversification cannot remove.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .binom import pmf_window
from .distributions import DiscreteLossDistribution, binomial, convolve, mixture

__all__ = [
    "ModelKind",
    "ModelSpec",
    "PortfolioParams",
    "SupportLimitError",
    "StateTerm",
    "side_laws",
    "MAX_SUPPORT",
    "check_support",
    "crisis_rounds",
    "state_terms",
    "loss_count_distribution",
    "exact_decimal",
    "closed_form_mean_per_policy",
    "closed_form_variance_per_policy",
    "nondiversifiable_floor",
]

MAX_SUPPORT = 10_000_000


# The range of each kind of float field, as (rule, test); every test fails NaN.
# The CLI's float flags are parsed against the same ranges.
PROBABILITY = ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
LEVEL = ("lie in (0, 1)", lambda v: 0.0 < v < 1.0)
RATE = ("be finite and >= 0", lambda v: 0.0 <= v < math.inf)
AMOUNT = ("be positive and finite", lambda v: 0.0 < v < math.inf)


def _check_integer(name: str, value) -> None:
    """Raise ValueError unless value is an integer (a Python or numpy int, not a float)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_range(name: str, value: float, kind: tuple) -> None:
    """Raise ValueError unless value lies in kind's range."""
    rule, holds = kind
    if not holds(value):
        raise ValueError(f"{name} must {rule}, got {value}")


class SupportLimitError(ValueError):
    """Requested portfolio needs a larger support than the fixed limit, MAX_SUPPORT."""


class ModelKind(str, Enum):
    IID = "iid"
    COMMON_SHOCK = "common-shock"
    PER_EXPOSURE_SHOCK = "per-exposure-shock"


@dataclass(frozen=True)
class ModelSpec:
    """Which generative model, and its probabilities.

    loss_prob is the normal-state per-exposure loss probability; the shock
    models add a crisis state entered with probability crisis_prob in which
    exposures lose with probability crisis_loss_prob instead.
    """

    kind: ModelKind
    loss_prob: float
    crisis_loss_prob: float = 0.0
    crisis_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        for name in ("loss_prob", "crisis_loss_prob", "crisis_prob"):
            _check_range(name, getattr(self, name), PROBABILITY)
        if self.kind is ModelKind.IID and self.crisis_prob != 0.0:
            raise ValueError(f"iid has no crisis state, got crisis_prob={self.crisis_prob}")
        if self.kind is not ModelKind.IID:
            if self.crisis_loss_prob <= self.loss_prob:
                warnings.warn(
                    "crisis_loss_prob <= loss_prob: the crisis state does not "
                    "increase losses; results remain valid",
                    stacklevel=3,
                )
            if self.crisis_prob > 0.5:
                warnings.warn(
                    "crisis_prob > 0.5: crises are the majority state",
                    stacklevel=3,
                )

    @classmethod
    def iid(cls, p: float) -> "ModelSpec":
        return cls(ModelKind.IID, p)

    @classmethod
    def common_shock(cls, p: float, q: float, p_tilde: float) -> "ModelSpec":
        return cls(ModelKind.COMMON_SHOCK, p, q, p_tilde)

    @classmethod
    def per_exposure_shock(cls, p: float, q: float, p_tilde: float) -> "ModelSpec":
        return cls(ModelKind.PER_EXPOSURE_SHOCK, p, q, p_tilde)


@dataclass(frozen=True)
class PortfolioParams:
    """Portfolio shape and economics.

    Attributes:
        exposures: n, times each policy is exposed to the risk.
        severity: unit loss amount per occurrence (currency).
        capital_cost: cost-of-capital rate charged on held capital.
        expense_ratio: expenses as a fraction of expected loss.
        alpha: confidence level of the risk measure.
    """

    exposures: int = 6
    severity: float = 10.0
    capital_cost: float = 0.15
    expense_ratio: float = 0.0
    alpha: float = 0.99

    def __post_init__(self):
        _check_integer("exposures", self.exposures)
        if self.exposures < 1:
            raise ValueError("exposures must be >= 1")
        _check_range("severity", self.severity, AMOUNT)
        for name in ("capital_cost", "expense_ratio"):
            _check_range(name, getattr(self, name), RATE)
        _check_range("alpha", self.alpha, LEVEL)


def check_support(N: int, n: int) -> None:
    """Check N policies of n exposures each before any array over their loss counts.

    N*n is the largest loss count.  The exact distribution stores the
    counts from its lowest to its highest of non-negligible mass, which lie
    inside 0 .. N*n, and a simulation draws over the same terms' windows.
    The guard bounds both, so both engines call this first.  The limit is
    the fixed MAX_SUPPORT (1e7 counts), with no override.

    Raises:
        ValueError: If N or n is not an integer or is less than 1.
        SupportLimitError: If N*n exceeds MAX_SUPPORT.
    """
    _check_integer("N", N)
    _check_integer("n", n)
    if N < 1 or n < 1:
        raise ValueError(f"N and n must be >= 1, got N={N}, n={n}")
    # In Python ints: a numpy N would wrap the product in int64.
    support = int(N) * int(n)
    if support > MAX_SUPPORT:
        raise SupportLimitError(
            f"support of {support} counts (N={N}, n={n}) exceeds the limit {MAX_SUPPORT}"
        )


def crisis_rounds(model: ModelSpec, n: int) -> list[tuple[int, float]]:
    """The law of j, the rounds in crisis: (j, probability) pairs in increasing j.

    The common shock puts its mass on j = 0 and j = n; otherwise j ~
    Binomial(n, p_tilde), whose weights are the pmf kernel of binomial, so any
    n works.  A sure j (iid is j = 0) comes alone, without n zero weights.
    """
    pt = model.crisis_prob
    if model.kind is ModelKind.COMMON_SHOCK:
        return [(0, 1.0 - pt), (n, pt)]
    if pt in (0.0, 1.0):
        return [(n if pt else 0, 1.0)]
    return list(enumerate(_round_weights(n, pt)))


@lru_cache(maxsize=64)
def _round_weights(n: int, pt: float) -> tuple[float, ...]:
    """The Binomial(n, pt) weights of crisis_rounds, computed once per (n, pt).

    Every draw and every exact build asks for the law of its model's crisis
    rounds, and a short numpy window costs more in calls than in arithmetic.
    """
    return tuple(pmf_window(n, pt, 0, n).tolist())


@lru_cache(maxsize=128)
def _side(trials: int, prob: float) -> DiscreteLossDistribution:
    """Binomial(trials, prob), the stored law of one side of a state term, built once.

    128 entries hold the sides of a T4 grid (8 N x 12 states' sides, 80 of
    them distinct), which every pt column, the exact measures and the
    sampler share.  binomial is looked up in this module at call time, so a
    caller that rebinds it sees every build.
    """
    return binomial(trials, prob)


def side_laws(crisis: tuple[int, float], normal: tuple[int, float]
              ) -> tuple[DiscreteLossDistribution, ...]:
    """The stored laws of a state term's nonempty sides, crisis first, each memoised (_side)."""
    return tuple(_side(*side) for side in (crisis, normal) if side[0])


@lru_cache(maxsize=64)
def _state_term(crisis: tuple[int, float], normal: tuple[int, float]) -> DiscreteLossDistribution:
    """Binomial(*crisis) + Binomial(*normal), built once from its sides (side_laws).

    Keyed by the sides, as measures._term_reader is, with the probability of
    an empty side 0.0, so a state shared by several models or crisis
    probabilities is one entry.  64 entries hold one T4 column (8 N x 7
    states).  A one-sided term is its side's law; convolve is looked up in
    this module at call time, so a caller that rebinds it sees every build.
    """
    sides = side_laws(crisis, normal)
    return sides[0] if len(sides) == 1 else convolve(*sides)


class StateTerm(NamedTuple):
    """The loss count given j crisis rounds: Binomial(*crisis) + Binomial(*normal).

    weight is P(j) (crisis_rounds); a side is (trials, prob), (N*j, q) and
    (N*(n-j), p), or (0, 0.0) when empty.  The exact measures read the
    term off its sides' stored laws (side_laws); the convolved law is built
    only when something reads it (the sampler, loss_count_distribution).
    Compared by identity, as a record of memoised objects.
    """

    j: int
    weight: float
    crisis: tuple[int, float]
    normal: tuple[int, float]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def law(self) -> DiscreteLossDistribution:
        """The term's stored law: the memoised _state_term, convolved on first access."""
        return _state_term(self.crisis, self.normal)

    @property
    def component(self) -> tuple | None:
        """(weight, trials, prob, lo, hi): the term as one binomial on its law's window, or None.

        The plateau probe's recipe (distributions.cdf_reaches).  A side of
        prob 0 is Binomial(0, 1); two nonempty sides have no such form.
        """
        if self.crisis[0] and self.normal[0]:
            return None
        side = self.crisis if self.crisis[0] else self.normal
        law = _side(*side)
        trials, prob = (0, 1.0) if side[1] == 0.0 else side
        return (self.weight, trials, float(prob), law.min_count, law.max_count)


def state_terms(model: ModelSpec, N: int, n: int) -> list[StateTerm]:
    """The loss count in each state of crisis_rounds: StateTerms in increasing j.

    States of zero weight are skipped.  Both engines read these terms: the
    exact measures off each term's two sides, never its convolved law
    (measures.var_and_tvar), and the Monte Carlo sampler by drawing each
    simulation's paths over the terms' laws.  Neither a side nor a law
    depends on p_tilde, so each is built once per process (_side,
    _state_term) and every crisis probability, column and engine gets the
    same frozen object: sharing it cannot change a bit.
    """
    p, q = model.loss_prob, model.crisis_loss_prob
    return [StateTerm(j, w, (N * j, q if j else 0.0), (N * (n - j), p if j < n else 0.0))
            for j, w in crisis_rounds(model, n) if w != 0.0]


def loss_count_distribution(
    model: ModelSpec,
    N: int,
    n: int,
) -> DiscreteLossDistribution:
    """Exact distribution of the portfolio loss count, stored densely.

    The mixture of the state_terms' convolved laws in state order, so
    results do not depend on scheduling.  It stores every count from the
    lowest to the highest of its terms, the gaps between the states' humps
    included, for `dist`, T1 and the tests; the measures read each term off
    its sides instead (montecarlo.measures_in_counts), never this array.

    Raises:
        ValueError: If check_support raises (a SupportLimitError past the
            support limit).
    """
    check_support(N, n)
    states = state_terms(model, N, n)
    if len(states) == 1:
        return states[0].law
    return mixture([t.law for t in states], [t.weight for t in states])


@lru_cache(maxsize=1024)
def exact_decimal(x: float) -> Fraction:
    """x as the exact decimal its repr prints: the number a user typed.

    Memoised: a simulated table reads the same few inputs in every cell.
    A numpy float is read as the Python float it equals, whose repr is
    the bare decimal.
    """
    return Fraction(repr(float(x)))


def closed_form_mean_per_policy(
    model: ModelSpec, params: PortfolioParams, exact: bool = False
) -> float | Fraction:
    """Expected loss per policy, in currency.

    All three models share l*n*(p_tilde*q + (1-p_tilde)*p); the iid model is
    the p_tilde = 0 case.  With exact set, every input is read as its decimal
    and the mean is that exact Fraction (_exact_mean).
    """
    return _exact_mean(model, params) if exact else _mean(model, params, float)


@lru_cache(maxsize=256)
def _exact_mean(model: ModelSpec, params: PortfolioParams) -> Fraction:
    """The exact mean, built once per (model, params).

    A bootstrap asks for it on every replicate.  Specs that compare equal
    have equal decimals, so sharing an entry changes no value.
    """
    return _mean(model, params, exact_decimal)


def _mean(model: ModelSpec, params: PortfolioParams, num) -> float | Fraction:
    """l*n*(p_tilde*q + (1-p_tilde)*p), with every input read by num."""
    n, l = params.exposures, num(params.severity)
    p, q, pt = (num(x) for x in (model.loss_prob, model.crisis_loss_prob, model.crisis_prob))
    return l * n * (pt * q + (1 - pt) * p)


def closed_form_variance_per_policy(
    model: ModelSpec,
    params: PortfolioParams,
    N: int,
) -> float:
    """Variance of the per-policy loss, in currency squared.

    The first term diversifies away as 1/N; the shock models add an
    N-independent term (see nondiversifiable_floor).  The iid model is the
    p_tilde = 0 case.
    """
    n, l = params.exposures, params.severity
    p, q, pt = model.loss_prob, model.crisis_loss_prob, model.crisis_prob
    diversifiable = l * l * n * (q * (1.0 - q) * pt + p * (1.0 - p) * (1.0 - pt)) / N
    return diversifiable + nondiversifiable_floor(model, params)


def nondiversifiable_floor(model: ModelSpec, params: PortfolioParams) -> float:
    """The N-independent part of the per-policy variance; 0 for iid.

    Equals l^2 n^2 (q-p)^2 pt(1-pt) under the common shock and l^2 n (q-p)^2
    pt(1-pt) under the per-exposure shock: one global state multiplies the
    systemic term by n relative to n independent round states.
    """
    n, l = params.exposures, params.severity
    p, q, pt = model.loss_prob, model.crisis_loss_prob, model.crisis_prob
    base = l * l * n * (q - p) ** 2 * pt * (1.0 - pt)
    if model.kind is ModelKind.COMMON_SHOCK:
        return base * n
    return base

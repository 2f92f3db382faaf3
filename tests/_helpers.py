"""Helpers shared by the test modules."""

import numpy as np

from riskdiv.distributions import DiscreteLossDistribution
from riskdiv.models import ModelKind, ModelSpec


def pointwise_distance(d1: DiscreteLossDistribution, d2: DiscreteLossDistribution) -> float:
    """Max absolute pmf difference over the union of supports."""
    lo = min(d1.min_count, d2.min_count)
    hi = max(d1.max_count, d2.max_count)
    a = np.zeros(hi - lo + 1)
    b = np.zeros(hi - lo + 1)
    a[d1.min_count - lo : d1.min_count - lo + len(d1.masses)] = d1.masses
    b[d2.min_count - lo : d2.min_count - lo + len(d2.masses)] = d2.masses
    return float(np.max(np.abs(a - b)))


def band_edges(d: DiscreteLossDistribution, alpha: float) -> tuple[int, int, int]:
    """(lo, g, hi): the plateau band of alpha and the double-precision answer g.

    The band is the run of points whose stored cdf lies within the plateau
    band width of alpha, its top clipped to the support.
    """
    from riskdiv.measures import _PLATEAU_BAND

    cdf = d.cdf
    lo = int(np.searchsorted(cdf, alpha - _PLATEAU_BAND, side="right"))
    hi = min(int(np.searchsorted(cdf, alpha + _PLATEAU_BAND)), len(cdf) - 1)
    return lo, int(np.searchsorted(cdf, alpha)), hi


def bisect_band(d: DiscreteLossDistribution, alpha: float) -> int:
    """Oracle for the plateau search: bisect the whole band on the exact cdf.

    Returns the index of the first band point whose exact cdf reaches
    alpha, or the band top if none does, in about log2(width) exact
    evaluations.
    """
    from mpmath import mpf

    from riskdiv.distributions import exact_cdf_at

    lo, _, hi = band_edges(d, alpha)
    a = mpf(alpha)
    while lo < hi:
        mid = (lo + hi) // 2
        if exact_cdf_at(d, d.min_count + mid) >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def draw_paths(model: ModelSpec, N: int, n: int, seed: int, size: int) -> np.ndarray:
    """A histogram of `size` paths drawn path by path: an oracle for the histogram sampler.

    Each path draws its crisis rounds j (one uniform under the common
    shock, Binomial(n, p_tilde) under the per-exposure shock, none when
    p_tilde = 0), then its count given j as Binomial(N*j, q) +
    Binomial(N*(n-j), p).  It shares no code with the sampler beyond the
    seed's stream, and it never reads the exact engine's terms.
    """
    from riskdiv.montecarlo import _stream

    rng = _stream(seed)
    total = N * n
    p, q, pt = model.loss_prob, model.crisis_loss_prob, model.crisis_prob
    if pt == 0.0:  # j = 0 surely, so no j is drawn
        draws = rng.binomial(total, p, size=size)
    else:
        # Draw each path's crisis rounds j, then group the paths by j so binomials
        # take scalar arguments.
        if model.kind is ModelKind.COMMON_SHOCK:
            rounds, states = n * (rng.random(size) < pt), (n, 0)
        else:
            rounds, states = rng.binomial(n, pt, size=size), range(n + 1)
        draws = np.empty(size, dtype=np.int64)
        for j in states:
            sel = rounds == j
            cnt = np.count_nonzero(sel)
            if cnt == 0:
                continue
            part = rng.binomial(N * j, q, cnt) if j > 0 else 0
            part = part + rng.binomial(N * (n - j), p, cnt)
            draws[sel] = part
    return np.bincount(draws, minlength=total + 1).astype(np.int64)


def pooled_chi_square(observed: np.ndarray, expected: np.ndarray,
                      min_expected: float = 5.0) -> tuple[float, int]:
    """Pearson chi-square of observed tallies against expected ones, and its dof.

    Adjacent bins are pooled, left to right, until each pooled bin expects
    at least min_expected; a short remainder joins the last pooled bin.
    Returns (statistic, pooled bins - 1).
    """
    obs, exp = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed.tolist(), expected.tolist()):
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= min_expected:
            obs.append(o_acc)
            exp.append(e_acc)
            o_acc = e_acc = 0.0
    if obs:
        obs[-1] += o_acc
        exp[-1] += e_acc
    obs_a, exp_a = np.array(obs), np.array(exp)
    return float(((obs_a - exp_a) ** 2 / exp_a).sum()), len(obs) - 1


def two_sample_chi_square(a: np.ndarray, b: np.ndarray,
                          min_pooled: float = 10.0) -> tuple[float, int]:
    """Two-sample chi-square of two equal-size histograms over the same bins, and its dof.

    The statistic is sum (a - b)^2 / (a + b) over bins pooled until the two
    samples together hold at least min_pooled, with pooled bins - 1 degrees
    of freedom.  It is twice the Pearson statistic of a against the pooled
    mean (a + b) / 2.
    """
    if a.sum() != b.sum():
        raise ValueError("the histograms must hold the same number of draws")
    stat, dof = pooled_chi_square(a, (a + b) / 2, min_pooled / 2)
    return 2 * stat, dof


def exact_tvar_loading_bits() -> list[str]:
    """.hex() of exact TVaR loadings per policy, in both conventions, at alpha = 0.99.

    The cases are the iid model at N = 100,000 and the common shock at
    pt = 0.001, N = 16,996 and at pt = 0.05, N = 50,000.
    """
    from riskdiv.measures import MeasureKind, RiskMeasureSpec, TvarConvention
    from riskdiv.models import PortfolioParams
    from riskdiv.pricing import price_policy

    cases = ((ModelSpec.iid(1 / 6), 100_000), (ModelSpec.common_shock(1 / 6, 0.5, 0.001), 16_996),
             (ModelSpec.common_shock(1 / 6, 0.5, 0.05), 50_000))
    return [
        price_policy(model, PortfolioParams(), N,
                     RiskMeasureSpec(MeasureKind.TVAR, 0.99, conv)).risk_loading_per_policy.hex()
        for model, N in cases for conv in TvarConvention
    ]

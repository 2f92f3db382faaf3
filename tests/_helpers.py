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
        if exact_cdf_at(d.components, d.min_count + mid) >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def dense_var_and_tvar(model: ModelSpec, N: int, n: int, alpha: float, convention):
    """VaR and TVaR read off the dense stored law: an oracle for the exact measure path.

    The quantile search runs over loss_count_distribution's mixture, every
    count from the lowest stored to the highest, the gaps between the
    states' humps included: it takes the double-precision answer, or with a
    recipe bisects the plateau band (band_edges) on
    distributions.cdf_reaches.  The tail beyond the VaR is one product-sum,
    in ascending order, over the stored counts above it that lie in a state
    term's window.  Those are the counts that can carry mass; a weighted
    mass inside a window may still underflow to 0.0 (a state weight near
    the bottom of the double range), and it is summed like any other.
    """
    import bisect

    from riskdiv import distributions
    from riskdiv.measures import TruncationError, tail_value
    from riskdiv.models import loss_count_distribution, state_terms

    d = loss_count_distribution(model, N, n)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if alpha > d.cdf[-1]:
        raise TruncationError(f"alpha={alpha} exceeds the resolvable cdf top")
    lo, idx, hi = band_edges(d, alpha)
    if d.components is not None:
        idx = lo + bisect.bisect_left(
            range(lo, hi), True,
            key=lambda i: distributions.cdf_reaches(d.components, d.min_count + i, alpha),
        )
    var_count = d.min_count + idx
    ks, ms = np.arange(var_count + 1, d.max_count + 1), d.masses[idx + 1 :]
    occupied = np.zeros(len(ks), dtype=bool)
    for _, _, term in state_terms(model, N, n):
        occupied |= (term.min_count <= ks) & (ks <= term.max_count)
    beyond = (ks[occupied] * ms[occupied]).sum()
    tvar = tail_value(var_count, d.masses[idx], d.cdf[idx], beyond, 1.0, alpha, convention)
    return var_count, float(tvar)


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


def dense(h) -> np.ndarray:
    """A LossHistogram's tallies as a dense int64 array over 0 .. N*n."""
    out = np.zeros(h.top + 1, dtype=np.int64)
    out[h.values] = h.tallies
    return out


def histogram(counts, num_sims: int):
    """The LossHistogram of dense tallies over 0 .. len(counts) - 1."""
    from riskdiv.montecarlo import LossHistogram

    counts = np.asarray(counts, dtype=np.int64)
    values = np.flatnonzero(counts)
    return LossHistogram(values, counts[values], num_sims, len(counts) - 1)


def dense_tally_var_and_tvar(counts: np.ndarray, alpha: float, convention):
    """VaR and TVaR read off dense tallies over 0 .. N*n: the dense-layout tally reader.

    An oracle for montecarlo.tally_var_and_tvar: a cumsum over every count,
    and the tail beyond the VaR as arange @ tallies.
    """
    from fractions import Fraction
    from math import ceil

    from riskdiv.measures import tail_value
    from riskdiv.models import exact_decimal

    cum = np.cumsum(counts)
    sims, a = int(cum[-1]), exact_decimal(alpha)
    var_count = int(np.searchsorted(cum, ceil(a * sims)))
    beyond = Fraction(int(np.arange(var_count + 1, len(cum)) @ counts[var_count + 1 :]))
    at, reached = int(counts[var_count]), int(cum[var_count])
    return var_count, tail_value(var_count, at, reached, beyond, sims, a, convention)


def dense_bootstrap_se(h, model: ModelSpec, params, N: int, measure, seed: int) -> float:
    """Bootstrap SE by N_BOOT dense multinomials over 0 .. N*n, one call each.

    An oracle for montecarlo.bootstrap_loading_se: the same stream, one
    replicate per call over every count, read by dense_tally_var_and_tvar.
    """
    from fractions import Fraction

    from riskdiv.measures import MeasureKind
    from riskdiv.montecarlo import N_BOOT, loading_from_rho

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0xB007))))
    probs = dense(h) / float(h.num_sims)
    is_tvar = measure.kind is MeasureKind.TVAR
    values = np.empty(N_BOOT)
    for i in range(N_BOOT):
        resampled = rng.multinomial(h.num_sims, probs)
        rho = dense_tally_var_and_tvar(resampled, measure.alpha, measure.convention)[is_tvar]
        values[i] = loading_from_rho(Fraction(rho), model, params, N)
    return float(values.std(ddof=1))


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

"""Helpers shared by the test modules."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np

from riskdiv.distributions import DiscreteLossDistribution, mixture
from riskdiv.models import ModelKind, ModelSpec, StateTerm, side_laws


def fraction_half_up(x: float | Fraction, places: int) -> str:
    """x to places decimals, ties away from zero, in Fraction arithmetic: an oracle for
    tables._half_up.

    A float is rounded as the decimal its repr prints, a Fraction exactly.
    """
    if not isinstance(x, Fraction):
        x = Fraction(repr(float(x)))
    units = math.floor(abs(x) * 10**places + Fraction(1, 2))
    return str(Decimal((int(x < 0), tuple(map(int, str(units))), -places)))


def binomial_terms(*parts: tuple[float, int, float]) -> list[StateTerm]:
    """State terms of a mixture of binomials, one per (weight, trials, prob) part, in order.

    Each term has one nonempty side, so each carries a component and the
    mixture's plateaus are decided exactly (measures.var_and_tvar).
    """
    return [StateTerm(j, w, (0, 0.0), (trials, prob)) for j, (w, trials, prob) in enumerate(parts)]


def dense_law(terms: list[StateTerm]) -> DiscreteLossDistribution:
    """The terms' stored mixture, every count between their windows included."""
    return mixture([t.law for t in terms], [t.weight for t in terms])


def recipe_of(terms: list[StateTerm]) -> tuple | None:
    """The plateau probe's recipe: the terms' components, or None when one has none."""
    components = tuple(t.component for t in terms)
    return None if None in components else components


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


def bisect_band(d: DiscreteLossDistribution, recipe: tuple, alpha: float) -> int:
    """Oracle for the plateau search: bisect the whole band of d on the exact cdf of recipe.

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
        if exact_cdf_at(recipe, d.min_count + mid) >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def dense_var_and_tvar(model: ModelSpec, N: int, n: int, alpha: float, convention):
    """VaR and TVaR read off the dense stored law: an oracle for the exact measure path.

    The quantile search runs over loss_count_distribution's mixture, every
    count from the lowest stored to the highest, the gaps between the
    states' humps included: it takes the double-precision answer, or, when
    every state term has a component (recipe_of), bisects the plateau band
    (band_edges) on distributions.cdf_reaches.  The tail beyond the VaR is
    one product-sum, in ascending order, over the stored counts above it
    that lie in a state term's window.  Those are the counts that can carry mass; a weighted
    mass inside a window may still underflow to 0.0 (a state weight near
    the bottom of the double range), and it is summed like any other.
    """
    import bisect

    from riskdiv import distributions
    from riskdiv.measures import TruncationError, tail_value
    from riskdiv.models import loss_count_distribution, state_terms

    d, terms = loss_count_distribution(model, N, n), state_terms(model, N, n)
    recipe = recipe_of(terms)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if alpha > d.cdf[-1]:
        raise TruncationError(f"alpha={alpha} exceeds the resolvable cdf top")
    lo, idx, hi = band_edges(d, alpha)
    if recipe is not None:
        idx = lo + bisect.bisect_left(
            range(lo, hi), True,
            key=lambda i: distributions.cdf_reaches(recipe, d.min_count + i, alpha),
        )
    var_count = d.min_count + idx
    ks, ms = np.arange(var_count + 1, d.max_count + 1), d.masses[idx + 1 :]
    occupied = np.zeros(len(ks), dtype=bool)
    for t in terms:
        occupied |= (t.law.min_count <= ks) & (ks <= t.law.max_count)
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

    The cases are the iid model at N = 100,000, the common shock at
    pt = 0.001, N = 16,996 and at pt = 0.05, N = 50,000, and the
    per-exposure shock at pt = 0.01, N = 100,000 and N = 60,383.
    """
    from riskdiv.measures import MeasureKind, RiskMeasureSpec, TvarConvention
    from riskdiv.models import PortfolioParams
    from riskdiv.pricing import price_policy

    crisis = ModelSpec.per_exposure_shock(1 / 6, 0.5, 0.01)
    cases = ((ModelSpec.iid(1 / 6), 100_000), (ModelSpec.common_shock(1 / 6, 0.5, 0.001), 16_996),
             (ModelSpec.common_shock(1 / 6, 0.5, 0.05), 50_000), (crisis, 100_000), (crisis, 60_383))
    return [
        price_policy(model, PortfolioParams(), N,
                     RiskMeasureSpec(MeasureKind.TVAR, 0.99, conv)).risk_loading_per_policy.hex()
        for model, N in cases for conv in TvarConvention
    ]


def sides(term: StateTerm) -> tuple[DiscreteLossDistribution, ...]:
    """The stored laws of a state term's nonempty sides, crisis first."""
    return side_laws(term.crisis, term.normal)


# Every double is a multiple of 2**-1074, so x * 2**SCALE is an integer.
SCALE = 1100


def fixed(x: float) -> int:
    """x * 2**SCALE as an exact integer."""
    num, den = float(x).as_integer_ratio()
    return num << (SCALE + 1 - den.bit_length())


class ExactTerm:
    """One state term read in exact arithmetic off the doubles of its stored sides.

    The law the exact measures read (measures.var_and_tvar): for sides X and
    Y, F(k) = X.truncated_below + sum_x a[x] (Y.truncated_below + sum_{y <= k - x} b[y]),
    pmf(k) = sum_x a[x] b[k - x], and the tail sum beyond v is
    sum_x a[x] sum_{y > v - x} (x + y) b[y].  A term with one side is that
    side's stored law.  Every value is an exact Fraction.
    """

    def __init__(self, term):
        self.weight = Fraction(term.weight)
        self.sides = [(d.min_count, [fixed(m) for m in d.masses.tolist()], fixed(d.truncated_below))
                      for d in sides(term)]
        self.lo = sum(lo for lo, _, _ in self.sides)
        self.hi = sum(lo + len(m) - 1 for lo, m, _ in self.sides)

    @staticmethod
    def _side_cdf(side, k: int) -> int:
        lo, masses, below = side
        return below + sum(masses[: max(0, min(k - lo + 1, len(masses)))])

    def cdf(self, k: int) -> Fraction:
        if len(self.sides) == 1:
            return Fraction(self._side_cdf(self.sides[0], k), 2**SCALE)
        (xlo, a, x_below), y = self.sides
        total = sum(ai * self._side_cdf(y, k - xlo - i) for i, ai in enumerate(a))
        return Fraction(x_below, 2**SCALE) + Fraction(total, 2 ** (2 * SCALE))

    def pmf(self, k: int) -> Fraction:
        if len(self.sides) == 1:
            lo, masses, _ = self.sides[0]
            return Fraction(masses[k - lo] if lo <= k < lo + len(masses) else 0, 2**SCALE)
        (xlo, a, _), (ylo, b, _) = self.sides
        total = sum(ai * b[k - xlo - i - ylo] for i, ai in enumerate(a)
                    if 0 <= k - xlo - i - ylo < len(b))
        return Fraction(total, 2 ** (2 * SCALE))

    def beyond(self, v: int) -> Fraction:
        if len(self.sides) == 1:
            lo, masses, _ = self.sides[0]
            return Fraction(sum(k * m for k, m in enumerate(masses, lo) if k > v), 2**SCALE)
        (xlo, a, _), (ylo, b, _) = self.sides
        # Suffix sums of b and y * b: tail[t] and moment[t] over Y's counts from its t-th on.
        tail, moment = [0] * (len(b) + 1), [0] * (len(b) + 1)
        for t in range(len(b) - 1, -1, -1):
            tail[t], moment[t] = tail[t + 1] + b[t], moment[t + 1] + (ylo + t) * b[t]
        total = 0
        for i, ai in enumerate(a):
            t = min(max(v - xlo - i - ylo + 1, 0), len(b))
            total += ai * ((xlo + i) * tail[t] + moment[t])
        return Fraction(total, 2 ** (2 * SCALE))


def exact_reads(terms, v: int) -> tuple[Fraction, Fraction, Fraction]:
    """(pmf, cdf, tail sum beyond v) of the weighted terms at count v, exactly."""
    exact = [ExactTerm(t) for t in terms]
    return tuple(sum(e.weight * getattr(e, name)(v) for e in exact)
                 for name in ("pmf", "cdf", "beyond"))


def gamma(rounds: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2**-53: n roundings of a sum of nonnegative terms
    err by at most gamma_n of it (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Lemma 3.1)."""
    u = 2.0**-53
    return rounds * u / (1 - rounds * u)


def pairwise_rounds(t: int) -> int:
    """The most roundings one term meets in numpy's sum of t contiguous float64 terms.

    numpy sums pairwise (Higham, section 4.2), in blocks: the reduce may add
    its first term to the sum of the rest (one addition); that sum halves
    its range until at most 128 terms remain, at most ceil(log2 t) levels; a
    block keeps 8 strided partial sums of up to 16 terms (15 additions),
    joins them in 3 levels and adds up to 7 leftover terms one by one.
    """
    return 1 + math.ceil(math.log2(max(t, 1))) + 15 + 3 + 7


def reader_rounds(terms) -> dict[str, int]:
    """Roundings behind each value the exact measures read off the terms, per output.

    For m terms, a two-sided term X + Y with the shorter side of length L and
    the longer of length M:
    - cdf: C_Y is a compensated running sum, within 2u + O(M u**2), so 3
      roundings; then the product with a[i] (1), numpy's sum over the L
      products, the add of X's truncated mass (1); a one-sided term is its
      stored cdf (3).  The weight's product (1) and the running sum over
      the terms (m) follow.
    - pmf: one product (1) and the sum over L; a one-sided term reads its
      stored mass (0).
    - tail sum: S_Y and E_Y are plain running sums of at most M terms,
      y * b adding one more (M); x * S (1), + E (1), a[i] * (...) (1) and
      the sum over L; a one-sided term is one product (1) and the sum over
      its stored counts.
    """
    m = len(terms)
    shorter = max((len(min(sides(t), key=lambda d: len(d.masses)).masses) for t in terms
                   if len(sides(t)) == 2), default=1)
    longest = max(len(d.masses) for t in terms for d in sides(t))
    return {
        "cdf": 3 + 1 + pairwise_rounds(shorter) + 1 + 1 + m,
        "pmf": 1 + pairwise_rounds(shorter) + 1 + m,
        "beyond": longest + 3 + pairwise_rounds(max(shorter, longest)) + 1 + m,
    }


def underflow_allowance(terms) -> float:
    """An absolute allowance for gradual underflow in any value read off the terms.

    A rounding whose result is subnormal errs by up to 2**-1075 beyond its
    relative bound (Higham, section 2.1), which a tiny weight reaches.  The
    values read involve at most 8 m (top + 2)**2 operations for m terms up
    to the top count, and the tail sum scales an error by at most top + 1.
    """
    top = max(sum(d.max_count for d in sides(t)) for t in terms)
    # 2**-1075 itself rounds to 0.0: the factor 8 is halved instead.
    return 2.0**-1074 * (4 * len(terms) * (top + 2) ** 2 * (top + 1))


def tvar_error(var_count, at, reached, beyond, alpha, convention, e_at, e_reached, e_beyond):
    """A bound on |TVaR - exact TVaR|, where |value - exact value| <= e_value for each input.

    measures.tail_value on the computed inputs forms the weight and the mass
    with at most three roundings each and divides once; the bound follows
    from |m'/w' - m/w| <= (e_m + (m/w) e_w) / (w - e_w).  alpha is the
    double itself, exact.
    """
    from riskdiv.measures import TvarConvention

    u = 2.0**-53
    at, reached, beyond, alpha = (float(x) for x in (at, reached, beyond, alpha))
    if TvarConvention(convention) is TvarConvention.CONDITIONAL:
        weight, mass = 1.0 - reached + at, beyond + var_count * at
        e_w = e_reached + e_at + 3 * u * (abs(1.0 - reached) + at)
        e_m = e_beyond + var_count * e_at + 3 * u * mass
    else:
        weight, mass = 1.0 - alpha, beyond + var_count * (reached - alpha)
        e_w = u * weight
        e_m = e_beyond + var_count * e_reached + 3 * u * (beyond + var_count * abs(reached - alpha))
    if not weight > e_w:
        return math.inf
    tvar = mass / weight
    # The bound's own float arithmetic is covered by a relative 1e-9.
    return ((e_m + abs(tvar) * e_w) / (weight - e_w) + 2 * u * abs(tvar)) * (1 + 1e-9)

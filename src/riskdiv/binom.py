"""The binomial pmf and tails in double precision, on numpy and math alone.

One term of Bin(n, p) is evaluated directly, in Loader's saddle-point form
(C. Loader, "Fast and accurate computation of binomial probabilities",
2000): the Stirling-series error of each factorial and the deviance bd0 of
each side, so that nothing large cancels.  Every other term follows from it
by the ratio of consecutive terms,

    t(j + 1) / t(j) = (n - j) p / ((j + 1) q),    q = 1 - p,

multiplied out from the anchor with np.multiply.accumulate, straight into
the window.  pmf_window anchors at the mode and fills a window of counts;
small_tail sums the window of a tail's terms that can matter, which
pmf_window anchors at the tail's first term.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

__all__ = ["pmf", "pmf_window", "small_tail"]

# ln(2 pi).
_LN_2PI = 1.8378770664093453

# stirlerr(n) = ln(n!) - (n + 1/2) ln(n) + n - ln(2 pi) / 2 for n = 0..15, each
# the double nearest the value (n = 0 is never read).
_STIRLERR = (
    0.0,
    0.08106146679532726,
    0.0413406959554093,
    0.02767792568499834,
    0.020790672103765093,
    0.016644691189821193,
    0.013876128823070748,
    0.01189670994589177,
    0.010411265261972096,
    0.009255462182712733,
    0.00833056343336287,
    0.007573675487951841,
    0.00694284010720953,
    0.006408994188004207,
    0.0059513701127588475,
    0.005554733551962801,
)
# Coefficients of the Stirling series 1/(12n) - 1/(360n^3) + 1/(1260n^5) - ...
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188

# ln(4 / u), u = 2**-53: small_tail drops a remainder below u/4 of its first term.
_LN_4_OVER_U = 55 * math.log(2.0)


def _stirlerr(n: int) -> float:
    """ln(n!) - ln(sqrt(2 pi n) (n/e)^n), from the table or the Stirling series."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    if n > 500:
        return (_S0 - _S1 / nn) / n
    if n > 80:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x ln(x / m) + m - x, by its series in (x - m) / (x + m) when x is near m."""
    d = x - m
    if abs(d) < 0.1 * (x + m):
        v = d / (x + m)
        s = d * v
        ej = 2.0 * x * v
        v *= v
        j = 3
        while True:
            ej *= v
            s1 = s + ej / j
            if s1 == s:
                return s
            s = s1
            j += 2
    return x * math.log(x / m) + m - x


def pmf(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) = k] for 0 <= k <= n and 0 < p < 1, in Loader's form."""
    q = 1.0 - p
    if k == 0:
        lc = -_bd0(n, n * q) - n * p if p < 0.1 else n * math.log(q)
        return math.exp(lc)
    if k == n:
        lc = -_bd0(n, n * p) - n * q if q < 0.1 else n * math.log(p)
        return math.exp(lc)
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    lf = _LN_2PI + math.log(k) + math.log((n - k) / n)
    return math.exp(lc - 0.5 * lf)


@lru_cache(maxsize=256)
def _odds(p: float) -> tuple[float, float]:
    """c = p / (1 - p) to the nearest double, and delta with c = p / (1 - p) · (1 + delta).

    q = 1 - p is q_hi + q_lo exactly (both subtractions are exact, by
    Sterbenz), and c·q_hi is split exactly by Dekker's product, so delta
    is exact to first order.  Memoised per p: a model's sides share few
    probabilities.
    """
    q_hi = 1.0 - p
    q_lo = (1.0 - q_hi) - p
    c = p / q_hi
    prod = c * q_hi
    s = 134217729.0  # 2**27 + 1
    t = s * c
    c_h = t - (t - c)
    t = s * q_hi
    q_h = t - (t - q_hi)
    c_l, q_l = c - c_h, q_hi - q_h
    err = ((c_h * q_h - prod) + c_h * q_l + c_l * q_h) + c_l * q_l
    return c, ((prod - p) + err + c * q_lo) / p


def pmf_window(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """P[Bin(n, p) = j] for j = lo..hi, with 0 <= lo <= hi <= n and 0 < p < 1.

    The anchor is the mode, clamped into the window, and the terms either
    side are its running products with the term ratios (n - j) / (j + 1) · c,
    c = p / (1 - p), so they fall away from it and nothing overflows.  Each
    chain of ratios is formed in place from the aranges of its numerators
    and denominators and multiplied out straight into its half of the
    window.  The rounding of c would tilt a term i steps out by i·delta
    (_odds); each term is scaled back by 1 - (j - mode)·delta.  A term's
    bits depend on (n, p, j) and the anchor only: widening a window that
    holds the mode changes none of them.
    """
    c, delta = _odds(p)
    m = min(max(int((n + 1) * p), lo), hi)
    out = np.empty(hi - lo + 1)
    i = m - lo
    out[i] = t = pmf(m, n, p)
    if m < hi:
        up = np.arange(n - m, n - hi, -1, dtype=np.float64)
        up /= np.arange(m + 1, hi + 1, dtype=np.float64)
        up *= c
        up[0] *= t
        np.multiply.accumulate(up, out=out[i + 1 :])
    if i:
        down = np.arange(m, lo, -1, dtype=np.float64)
        down /= np.arange(n - m + 1, n - lo + 1, dtype=np.float64)
        down /= c
        down[0] *= t
        np.multiply.accumulate(down, out=out[i - 1 :: -1])
    if delta:
        tilt = np.arange(lo - m, hi - m + 1, dtype=np.float64)
        tilt *= delta
        out *= np.subtract(1.0, tilt, out=tilt)
    return out


@lru_cache(maxsize=4096)
def small_tail(k: int, n: int, p: float) -> tuple[float, bool]:
    """The tail of Bin(n, p) beyond k on the side away from the mean, and that side.

    For 0 <= k < n and 0 < p < 1: (P[X <= k], False) when k < n p, else
    (P[X > k], True).  It sums the tail's first L terms as a pmf_window,
    anchored at the first term, the largest: the ratios only shrink outward,
    so the remainder is at most first·r0**L / (1 - r0) for the first ratio
    r0.  By Bernstein's inequality it is also at most
    exp(-dev**2 / (2 (npq + dev / 3))) beyond n p -+ dev.  L is the fewer
    terms either bound needs to hold the remainder below u/4 of the first
    term, u = 2**-53.  A tail whose first term is below the smallest normal
    double reads 0.0.  A plateau search clamps k to each component's stored
    support, so its probes ask for the same tail again and again: each is
    summed once.
    """
    q = 1.0 - p
    mean = n * p
    upper = k >= mean
    a = k + 1 if upper else k
    t = pmf(a, n, p)
    if t < sys.float_info.min:
        return 0.0, upper
    lam = _LN_4_OVER_U - math.log(t)
    dev = lam / 3.0 + math.sqrt(lam * lam / 9.0 + 2.0 * lam * mean * q)
    if upper:
        r0 = (n - a) * p / ((a + 1) * q)
        count = min(n - k, math.ceil(mean + dev) + 2 - a)
    else:
        r0 = a * q / ((n - a + 1) * p)
        count = min(k + 1, a + 2 - math.floor(mean - dev))
    if 0.0 < r0 < 1.0:
        count = min(count, math.ceil(math.log(0.25 * 2.0**-53 * (1.0 - r0)) / math.log(r0)) + 1)
    lo, hi = (a, a + count - 1) if upper else (a - count + 1, a)
    return float(pmf_window(n, p, lo, hi).sum()), upper

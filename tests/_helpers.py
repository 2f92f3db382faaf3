"""Helpers shared by the test modules."""

import numpy as np

from riskdiv.distributions import DiscreteLossDistribution


def pointwise_distance(d1: DiscreteLossDistribution, d2: DiscreteLossDistribution) -> float:
    """Max absolute pmf difference over the union of supports."""
    lo = min(d1.min_count, d2.min_count)
    hi = max(d1.max_count, d2.max_count)
    a = np.zeros(hi - lo + 1)
    b = np.zeros(hi - lo + 1)
    a[d1.min_count - lo : d1.min_count - lo + len(d1.masses)] = d1.masses
    b[d2.min_count - lo : d2.min_count - lo + len(d2.masses)] = d2.masses
    return float(np.max(np.abs(a - b)))


def record_pools(monkeypatch, cpus: int) -> list[int]:
    """Swap the Monte Carlo process pool for an in-process recorder, with `cpus` usable CPUs.

    Returns the list that each pool asked for appends its max_workers to.
    """
    import riskdiv.montecarlo as mc

    sizes = []

    class RecordingPool:
        """Records the pool size and runs the blocks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
    return sizes

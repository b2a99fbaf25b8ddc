"""Distribution reductions for the signoff report.

Percentiles (P50/P95/P99.9), normal-approximation confidence
half-widths (the early-stop criterion) and deterministic bootstrap
confidence intervals over the mean.  Everything here is a pure
function of the input arrays (in global sample-index order) plus a
stream key, so two runs that assembled the same samples — regardless
of chunking, worker count, or kill/resume history — reduce to
byte-identical statistics.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from .rng import BLOCK_COUNTERS, resample_indices

#: Report percentiles (the P50/P95/P99.9 the roadmap asks for).
PERCENTILES = (50.0, 95.0, 99.9)

#: Bootstrap resamples per confidence interval.
N_BOOT = 200

#: z-score of the two-sided 95 % normal interval.
Z95 = 1.959963984540054


def ci_half_width(n: int, total: float, total_sq: float) -> float:
    """Relative 95 % half-width of the mean from running sums.

    ``1.96 * s / (sqrt(n) * mean)`` with the sample variance computed
    from ``(n, sum, sum of squares)`` — the incremental form the
    early-stop rule evaluates as chunk sums accumulate in index order.
    Returns ``inf`` when the mean is not yet resolvable (n < 2 or a
    non-positive mean).
    """
    if n < 2:
        return math.inf
    mean = total / n
    if mean <= 0.0:
        return math.inf
    var = (total_sq - total * total / n) / (n - 1)
    if var < 0.0:  # float cancellation on near-constant data
        var = 0.0
    return Z95 * math.sqrt(var / n) / mean


def bootstrap_mean_ci(values: np.ndarray, key: int,
                      block: int = 0,
                      n_boot: int = N_BOOT,
                      idx: Optional[np.ndarray] = None
                      ) -> Dict[str, float]:
    """Deterministic bootstrap 95 % CI of the mean.

    Resampling indices come from the counter stream at ``(key,
    block)``, so the interval is reproducible and independent of how
    the values were produced.  Degenerate inputs (n == 1) collapse the
    interval onto the value.

    Generating the index stream dominates the cost, so a caller
    reducing many same-length metrics may pass a precomputed ``idx``
    (from :func:`~repro.signoff.rng.resample_indices`) — the *paired*
    bootstrap: every metric's CI uses the same resamples, which also
    makes the intervals directly comparable across metrics.
    """
    n = int(values.shape[0])
    if n == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if n == 1:
        v = float(values[0])
        return {"lo": v, "hi": v}
    if idx is None:
        idx = resample_indices(key, n, n_boot, block=block)
    if idx.shape[1] != n:
        raise ValueError(f"resample indices cover {idx.shape[1]} values, "
                         f"not {n}")
    lo, hi = np.percentile(_resample_means(values, idx), (2.5, 97.5))
    return {"lo": float(lo), "hi": float(hi)}


def _resample_means(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``values[idx].mean(axis=1)``, bit for bit, a few rows at a time.

    ``np.add.reduce`` sums each row pairwise whatever rows surround it,
    so gathering about :data:`~repro.signoff.rng.BLOCK_COUNTERS`
    indices at a time into one reused buffer gives the one-shot means
    without an ``(n_boot, n)`` copy.  ``idx`` must lie in ``[0, n)``, as
    :func:`~repro.signoff.rng.resample_indices` makes it: the gather
    does not bounds-check.
    """
    values = np.asarray(values, dtype=np.float64)
    n_boot, n = idx.shape
    rows = max(1, BLOCK_COUNTERS // n)
    buf = np.empty((min(rows, n_boot), n))
    sums = np.empty(n_boot)
    for lo in range(0, n_boot, rows):
        block = buf[:min(rows, n_boot - lo)]
        hi = lo + block.shape[0]
        np.take(values, idx[lo:hi], out=block, mode="clip")
        np.add.reduce(block, axis=1, out=sums[lo:hi])
    return sums / n


def summarize(values: np.ndarray, key: Optional[int] = None,
              block: int = 0,
              idx: Optional[np.ndarray] = None) -> Dict[str, float]:
    """Mean, report percentiles and (when ``key`` given) bootstrap CI.

    ``values`` must be in global sample-index order; the summary is
    then invariant to the chunking that produced them.  ``idx``
    forwards to :func:`bootstrap_mean_ci` (paired bootstrap).
    """
    if values.shape[0] == 0:
        raise ValueError("cannot summarize an empty sample")
    p50, p95, p999 = np.percentile(values, PERCENTILES)
    out = {
        "mean": float(values.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99_9": float(p999),
    }
    if key is not None:
        ci = bootstrap_mean_ci(values, key, block=block, idx=idx)
        out["ci_lo"] = ci["lo"]
        out["ci_hi"] = ci["hi"]
    return out


def proportion_summary(flags: np.ndarray, key: int,
                       block: int = 0,
                       idx: Optional[np.ndarray] = None
                       ) -> Dict[str, float]:
    """Yield-style summary of a boolean column: rate + bootstrap CI."""
    values = flags.astype(np.float64)
    ci = bootstrap_mean_ci(values, key, block=block, idx=idx)
    return {"rate": float(values.mean()),
            "ci_lo": ci["lo"], "ci_hi": ci["hi"]}

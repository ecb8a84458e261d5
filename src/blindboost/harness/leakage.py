"""What the indicator vectors reveal: characterization-vector analysis.

Every record accumulates one correctness bit per tried classifier (its
characterization vector). If CV similarity implied record similarity, the
indicator leakage would let CSP cluster the protected records; the analysis
buckets sampled record pairs by CV Hamming distance and compares record
Euclidean distances across buckets.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ..boosting import boost_rlc
from ..encoding import Dataset, fold_labels, standardize
from ..errors import InsufficientPairsWarning

MIN_RELIABLE_PAIRS = 30


@dataclass
class LeakageBucket:
    hamming: int
    count: int
    mean_distance: float
    std_distance: float
    reliable: bool


@dataclass
class LeakageReport:
    p: int
    sampled_pairs: int
    buckets: list
    global_mean: float
    global_std: float

    def to_dict(self):
        return {
            "p": self.p,
            "sampled_pairs": self.sampled_pairs,
            "global_mean": self.global_mean,
            "global_std": self.global_std,
            "buckets": [vars(b) for b in self.buckets],
        }


def _pair_stats(x, cv, pairs):
    """CV Hamming distance and Euclidean distance for sampled record pairs."""
    a, b = pairs[:, 0], pairs[:, 1]
    diff = x[a] - x[b]
    dist = np.sqrt((diff * diff).sum(axis=1))
    ham = (cv[a] != cv[b]).sum(axis=1).astype(np.int64)
    return ham, dist


def leakage_analysis(dataset: Dataset, p: int, seed: int,
                     pair_sample: int = 1_000_000) -> LeakageReport:
    """Bucket sampled record pairs by CV Hamming distance.

    Buckets with fewer than MIN_RELIABLE_PAIRS pairs are flagged, not failed.
    """
    std = standardize(dataset)
    run = boost_rlc(fold_labels(std).Z, tau=p, p_max=p, rng=np.random.default_rng(seed))
    cv, X = run.indicator_history.T, std.X  # a record's CV is its column of indicators
    n = X.shape[0]
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(seed ^ 0x70616972)
    if total_pairs <= pair_sample:
        iu = np.triu_indices(n, k=1)
        pairs = np.stack([iu[0], iu[1]], axis=1).astype(np.int64)
    else:
        a = rng.integers(0, n, size=pair_sample, dtype=np.int64)
        b = rng.integers(0, n - 1, size=pair_sample, dtype=np.int64)
        b = np.where(b >= a, b + 1, b)  # distinct partner, uniform
        pairs = np.stack([a, b], axis=1)
    ham, dist = _pair_stats(X, cv, pairs)
    buckets = []
    flagged = []
    for d in range(p + 1):
        mask = ham == d
        count = int(mask.sum())
        if count == 0:
            continue
        sel = dist[mask]
        reliable = count >= MIN_RELIABLE_PAIRS
        if not reliable:
            flagged.append(d)
        buckets.append(LeakageBucket(hamming=d, count=count,
                                     mean_distance=float(sel.mean()),
                                     std_distance=float(sel.std(ddof=0)),
                                     reliable=reliable))
    if flagged:
        warnings.warn(f"buckets {flagged} hold fewer than {MIN_RELIABLE_PAIRS} "
                      "pairs", InsufficientPairsWarning, stacklevel=2)
    assert sum(b.count for b in buckets) == len(pairs)
    return LeakageReport(p=p, sampled_pairs=len(pairs), buckets=buckets,
                         global_mean=float(dist.mean()),
                         global_std=float(dist.std(ddof=0)))

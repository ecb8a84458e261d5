"""Hot numeric kernels in numpy.

All ring arithmetic here relies on q = 2^L dividing 2^64: uint64 wraparound
is exact arithmetic mod 2^64, so masking with q-1 afterwards yields exact
results mod q for any L <= 64.
"""

import numpy as np


# ---------------------------------------------------------------------------
# ring matrix-vector product


def ring_matvec(zm, w, ring_bits):
    """Exact (Z @ w) mod 2^ring_bits over uint64 ring values."""
    mask = np.uint64((1 << ring_bits) - 1)
    zm = np.ascontiguousarray(zm, dtype=np.uint64)
    w = np.ascontiguousarray(w, dtype=np.uint64)
    return (zm @ w) & mask


# ---------------------------------------------------------------------------
# optimal decision stump search
#
# Candidate thresholds are midpoints between distinct consecutive sorted
# values plus one sentinel below the minimum; polarity +1 means
# "x < threshold -> predict +1". The scan keeps the best (lowest weighted
# error over both polarities) cut per feature.


def stump_scan(xs, ys, ws):
    """Best cut position for one presorted feature column.

    Returns (cut_min, err_min, cut_max, err_max): the minimum-error cut for
    polarity +1 and the maximum-error cut, whose complement 1-err is the best
    error for polarity -1.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.int8)
    ws = np.ascontiguousarray(ws, dtype=np.float64)
    n = xs.shape[0]
    pos_w = np.where(ys > 0, ws, 0.0)
    neg_w = ws - pos_w
    total_pos = pos_w.sum()
    # err_less_plus[c] = error of "x < cut_c -> +1" where cut_c sits before
    # sorted position c; c = 0 puts every record on the >= side.
    cum_pos = np.concatenate(([0.0], np.cumsum(pos_w)))
    cum_neg = np.concatenate(([0.0], np.cumsum(neg_w)))
    err = cum_neg + (total_pos - cum_pos)
    valid = np.ones(n + 1, dtype=bool)
    valid[1:n] = xs[1:] != xs[:-1]  # no cut between equal values
    err_lo = np.where(valid, err, np.inf)
    err_hi = np.where(valid, err, -np.inf)
    c_min = int(np.argmin(err_lo))
    c_max = int(np.argmax(err_hi))
    return c_min, float(err[c_min]), c_max, float(err[c_max])


# ---------------------------------------------------------------------------
# leakage pair statistics


def pair_stats(x, cv, pairs):
    """Euclidean distance and CV Hamming distance for sampled record pairs."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    cv = np.ascontiguousarray(cv, dtype=np.uint8)
    pairs = np.ascontiguousarray(pairs, dtype=np.int64)
    a = pairs[:, 0]
    b = pairs[:, 1]
    diff = x[a] - x[b]
    dist = np.sqrt((diff * diff).sum(axis=1))
    ham = (cv[a] != cv[b]).sum(axis=1).astype(np.int64)
    return ham, dist

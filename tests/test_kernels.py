import numpy as np

from blindboost.boosting import _stump_scan
from blindboost.encoding import FixedPointParams, ring_matvec
from blindboost.harness.leakage import _pair_stats


def test_ring_matvec_wraparound_exact():
    # uint64 wraparound is exact mod 2^L because 2^L divides 2^64
    zm = np.array([[(1 << 63) + 5, 3]], dtype=np.uint64)
    w = np.array([(1 << 62) + 7, 11], dtype=np.uint64)
    L = 20
    got = ring_matvec(zm, w, FixedPointParams(precision_bits=7, ring_bits=L))
    expect = (((1 << 63) + 5) * ((1 << 62) + 7) + 3 * 11) % (1 << L)
    assert int(got[0]) == expect


def test_stump_scan_skips_tied_values():
    xs = np.array([1.0, 1.0, 2.0, 3.0])
    ys = np.array([1, -1, -1, -1], dtype=np.int8)
    ws = np.full(4, 0.25)
    cut_min, err_min, _, _ = _stump_scan(xs, ys, ws)
    # no cut can separate the two tied values; best legal cut is after them
    assert cut_min in (2, 3, 4) or cut_min == 0


def test_pair_stats_values():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    cv = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.uint8)
    ham, dist = _pair_stats(X, cv, np.array([[0, 1]], dtype=np.int64))
    assert ham[0] == 2
    assert dist[0] == 5.0

"""Confidential decision-stump selection over a fixed binning grid.

Every normalized dimension is split by s equispaced thresholds strictly
inside (-4, 4); each threshold yields two conjugate stumps ("x < v -> class
1" and its complement), 2sk candidates in total. For each of the k features
the parties run one batched GC round whose circuit takes each record's
value once and compares it with all s public thresholds, outputting the
prediction-ERROR bit per record and threshold (1 = wrong); the conjugate
stump's vector is the bitwise complement, computed locally. CSP then
iteratively picks argmin_r dot(I_r, delta) for tau rounds, learning only
indices; Cloud resolves indices to stump parameters at the end.

Each round is the boosting protocols' sign round with the s thresholds as
the sign circuit's public constants (`build_sub_msb_batch`): on a masked
value and its mask the circuit takes d = value mod 2^L once and outputs
msb((d - v) mod 2^L) for every threshold v. Each party encodes the
thresholds itself from its own s and fixed-point parameters
(`threshold_constants`); they never travel. The label y in {0, 1} travels
inside the compared value: each user encrypts x + y * 2^(L-1), with no
reduction mod 2^L, and adding y * 2^(L-1) mod 2^L flips exactly the msb,
so msb((x + y * 2^(L-1) - v) mod 2^L) = msb(x - v) XOR y, the error bit.

SETUP is the boosting protocols' opening (`open_cloud` / `open_csp`), with
the k features as the dimension. The users encrypt their values shifted
into their slots, so Cloud adds those of a chunk of records into one
ciphertext, once per run and column (`pack_columns`). Feature j is then a
BASE_APPLY naming j, in order from 0, and the packed sign round of
.parties (`packed_sign_cloud` / `packed_sign_csp`) that HE+GC's ResultEval
runs too: CSP decrypts ceil(n / slots) ciphertexts, unpacks the per-record
masked values and garbles on them. A round hides x + y * 2^(L-1) < 2^(L+1).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ..boosting import EPSILON_FLOOR, BoostedModel, Stump, alpha, update_weights
from ..encoding import Dataset, FixedPointParams, encode, encode_array
from ..errors import BinCountInvalid, ConfigInvalid, MalformedMessage, PoolExhaustedWarning
# the GC round runs in .parties; perfbench/tracing.py wraps these names here too
# (build_stump_error_batch only as an alias of the circuit .parties builds)
from ..circuits import build_sub_msb_batch as build_stump_error_batch  # noqa: F401
from ..garbling import decode_output, evaluate, garble, tables_from_bytes  # noqa: F401
from ..ot import dealer_choose  # noqa: F401
from . import transport, wire
from .config import ProtocolConfig
from .engine import encrypt_submissions, run_pair
from .parties import (
    open_cloud,
    open_csp,
    pack_columns,
    packed_sign_cloud,
    packed_sign_csp,
    recv_field,
    reveal_width,
)
from .transcript import BASE_APPLY, DONE, Transcript, expect_phase


def threshold_grid(s: int) -> np.ndarray:
    """s split values strictly inside the normalized domain (-4, 4)."""
    if s < 2:
        raise BinCountInvalid(f"need at least 2 bins, got {s}")
    return -4.0 + 8.0 * (np.arange(s) + 1.0) / (s + 1.0)


def stump_catalog(k: int, s: int):
    """Candidate list in selection-index order: (feature, threshold index,
    polarity); polarity +1 is "x < v -> class 1"."""
    grid = threshold_grid(s)
    catalog = []
    for j in range(k):
        for r in range(s):
            catalog.append((j, float(grid[r]), 1))
            catalog.append((j, float(grid[r]), -1))
    return catalog


@dataclass
class StumpSelectionResult:
    selected_indices: list
    alphas: list
    model: BoostedModel
    error_vectors: np.ndarray  # (2sk, n) uint8 error bits, CSP's view
    transcript: Transcript


def _csp_select(error_vectors: np.ndarray, delta: np.ndarray, tau: int):
    """Iterative argmin over the candidate error vectors; lowest index wins
    ties. Returns (indices, alphas, final delta)."""
    indices, alphas = [], []
    for _ in range(tau):
        errs = error_vectors @ delta
        best = int(np.argmin(errs))
        e = float(errs[best])
        if e >= 0.5:
            break  # conjugate pairs guarantee min <= 0.5; equality is degenerate
        a = alpha(max(e, EPSILON_FLOOR))
        correct = (1 - error_vectors[best]).astype(np.uint8)
        delta = update_weights(delta, correct, a)
        indices.append(best)
        alphas.append(a)
    return indices, alphas, delta


def exhaustive_select_oracle(dataset: Dataset, s: int, tau: int,
                             precision_bits: int = 7):
    """Plaintext argmin over the same grid with the same ring comparisons."""
    X = np.asarray(dataset.X, dtype=np.float64)
    y01 = (np.asarray(dataset.y) == 1).astype(np.uint8)
    n, k = X.shape
    fp = FixedPointParams.for_dimension(k, precision_bits)
    catalog = stump_catalog(k, s)
    xq = encode_array(X, fp)
    half = np.uint64(fp.q // 2)
    mask = np.uint64(fp.q - 1)
    errors = np.zeros((len(catalog), n), dtype=np.uint8)
    for idx, (j, v, pol) in enumerate(catalog):
        vq = np.uint64(encode(v, fp))
        less = (((xq[:, j] - vq) & mask) >= half).astype(np.uint8)  # msb set
        pred = less if pol == 1 else (1 - less)
        errors[idx] = pred ^ y01
    delta = np.full(n, 1.0 / n)
    return _csp_select(errors, delta, tau), errors, fp, catalog


def threshold_constants(s: int, fp: FixedPointParams) -> tuple:
    """The ring encodings of the s thresholds: the public constants of
    every feature's sign circuit."""
    return tuple(encode(float(v), fp) for v in threshold_grid(s))


def _cloud_loop(ch, cfg, fp, rows, k, s, pk):
    """Cloud's side of the selection over the users' encrypted rows of k
    features under CSP's key `pk`, with s thresholds."""
    side = open_cloud(ch, cfg, len(rows), k, fp.ring_bits, threshold_constants(s, fp))
    bound = fp.ring_bits + 1  # x + y * 2^(L-1) < 2^L + 2^(L-1)
    columns = zip(*pack_columns(pk, rows, reveal_width(bound), ch.counters))
    for j, column in enumerate(columns):
        ch.send(BASE_APPLY, wire.pack_u32(j))
        # msb((x + y * 2^(L-1) - v) mod 2^L) = msb(x - v) XOR y, per threshold v
        packed_sign_cloud(ch, side, pk, column, bound)
    ch.send(DONE, b"")


def _csp_loop(ch, cfg, kp, n, k, fp, s):
    """CSP's side of the selection over its own n records, k features,
    fixed-point parameters `fp` and s thresholds; returns the (2sk, n)
    error vectors.

    Cloud's SETUP must declare exactly n, k and fp's ring width. Cloud must
    run the k features in order, numbered 0, 1, ..., and send DONE after
    the last one.
    """
    L = fp.ring_bits
    side = open_csp(ch, cfg, n, k, L, threshold_constants(s, fp))
    errors = np.zeros((2 * s * k, n), dtype=np.uint8)
    for expected in range(k):
        j = recv_field(ch, BASE_APPLY, wire.unpack_u32)
        if j != expected:
            raise MalformedMessage(f"feature {j} arrived in place of {expected}")
        err = np.asarray(packed_sign_csp(ch, side, kp, L + 1), dtype=np.uint8)
        rows = errors[2 * s * j:2 * s * (j + 1)]
        rows[0::2] = err.reshape(s, n)   # "x < v -> class 1", per threshold
        rows[1::2] = 1 - rows[0::2]      # conjugates: flipped vectors
    wire.expect_end(expect_phase(ch.recv(), DONE), 0)
    return errors


def confidential_ds_select(cfg: ProtocolConfig, dataset: Dataset, s: int,
                           tau: int | None = None) -> StumpSelectionResult:
    """Run the two-party stump-selection protocol end to end; a selection
    that stops before tau stumps warns with PoolExhaustedWarning."""
    tau = tau if tau is not None else cfg.tau
    if tau < 1:
        raise ConfigInvalid(f"need tau >= 1, got {tau}")
    X = np.asarray(dataset.X, dtype=np.float64)
    y01 = (np.asarray(dataset.y) == 1).astype(np.uint8)
    n, k = X.shape
    fp = FixedPointParams.for_dimension(k, cfg.precision_bits)
    catalog = stump_catalog(k, s)

    # each user folds the label in: x + y * 2^(L-1), below 2^L + 2^(L-1)
    xy = [[int(x) + (int(y) << (fp.ring_bits - 1)) for x in row]
          for row, y in zip(encode_array(X, fp), y01)]
    kp, rows = encrypt_submissions(cfg, xy, reveal_width(fp.ring_bits + 1))

    ch_cloud, ch_csp, transcript = transport.memory_pair()
    transcript.party("user").encryptions += n * k
    try:
        _, error_vectors = run_pair(
            lambda: _cloud_loop(ch_cloud, cfg, fp, rows, k, s, kp.public),
            lambda: _csp_loop(ch_csp, cfg, kp, n, k, fp, s),
            ch_cloud, ch_csp)
    finally:  # also when a party fails or the CSP thread times out
        ch_cloud.close()
        ch_csp.close()
    transcript.validate_phase_order()

    delta = np.full(n, 1.0 / n)
    indices, alphas, _ = _csp_select(error_vectors, delta, tau)
    if len(indices) < tau:
        warnings.warn(f"only {len(indices)}/{tau} stumps beat chance on the current "
                      f"weights", PoolExhaustedWarning, stacklevel=2)
    stumps = [Stump(feature=catalog[i][0], threshold=catalog[i][1],
                    polarity=catalog[i][2]) for i in indices]
    model = BoostedModel(kind="ds", classifiers=stumps, alphas=alphas)
    return StumpSelectionResult(selected_indices=indices, alphas=alphas,
                                model=model, error_vectors=error_vectors,
                                transcript=transcript)

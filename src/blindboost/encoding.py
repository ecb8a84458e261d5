"""Fixed-point encoding into a power-of-two ring, plus dataset preparation.

Reals are scaled by 2^b and embedded in Z_q with q = 2^L; negative values
occupy the upper half (q/2, q], so the top bit of the L-bit representation is
the sign. The ring width leaves room for one product of two encoded values
plus a full row of additions, which is what the matrix-vector step needs.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllColumnsConstant,
    DimensionMismatch,
    EmptyDataset,
    InvalidLabel,
    Overflow,
)

DEFAULT_PRECISION_BITS = 7


@dataclass(frozen=True)
class FixedPointParams:
    """Ring geometry: b fractional bits inside a 2^L ring."""

    precision_bits: int
    ring_bits: int

    def __post_init__(self):
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be >= 1")
        if self.ring_bits < 2 * self.precision_bits:
            raise ValueError("ring_bits too small for one product")

    @property
    def q(self) -> int:
        return 1 << self.ring_bits

    @property
    def scale(self) -> int:
        return 1 << self.precision_bits

    @classmethod
    def for_dimension(cls, folded_dim: int, precision_bits: int = DEFAULT_PRECISION_BITS):
        """Width for a dot product over `folded_dim` encoded coordinates.

        2b bits for the product, ceil(log2(d)) for the additions, plus one
        guard bit so in-range inputs cannot wrap.
        """
        if folded_dim < 1:
            raise ValueError("folded_dim must be >= 1")
        ring_bits = 2 * precision_bits + math.ceil(math.log2(max(folded_dim, 2))) + 1
        return cls(precision_bits=precision_bits, ring_bits=ring_bits)

    def product_bits(self, folded_dim: int) -> int:
        """Bit bound of a masked product: a dot product of `folded_dim` ring
        representatives by ring representatives, taken over the integers,
        is at most d (q - 1)^2 < 2^(2L + ceil(log2(d))).

        It bounds what the boosting protocols reveal under a mask: HE+GC's
        u = Z w and SecSh+GC's Z1 w.
        """
        if folded_dim < 1:
            raise ValueError("folded_dim must be >= 1")
        return 2 * self.ring_bits + math.ceil(math.log2(folded_dim))


def encode(x: float, p: FixedPointParams) -> int:
    """Map a real to its ring representative; raises Overflow out of range."""
    m = int(math.floor(abs(x) * p.scale))
    if m >= p.q // 2:
        raise Overflow(f"|{x}| * 2^{p.precision_bits} exceeds signed range of 2^{p.ring_bits}")
    if x >= 0:
        return m
    return (p.q - m) % p.q


def decode(v: int, p: FixedPointParams, scale_level: int = 1) -> float:
    """Inverse of encode; scale_level 2 reads a value one multiplication deep."""
    if scale_level not in (1, 2):
        raise ValueError("scale_level must be 1 or 2")
    v = int(v) % p.q
    signed = v - p.q if v >= p.q // 2 else v
    return signed / float(1 << (p.precision_bits * scale_level))


def is_negative(v: int, p: FixedPointParams) -> bool:
    """Sign test: top bit of the L-bit representation."""
    return bool((int(v) >> (p.ring_bits - 1)) & 1)


def encode_array(x: np.ndarray, p: FixedPointParams) -> np.ndarray:
    """Vectorized encode to uint64 ring values (requires L <= 64)."""
    if p.ring_bits > 64:
        raise Overflow("vectorized path supports ring_bits <= 64")
    x = np.asarray(x, dtype=np.float64)
    m = np.floor(np.abs(x) * p.scale)
    if np.any(m >= p.q // 2):
        raise Overflow("input exceeds signed range")
    m = m.astype(np.uint64)
    mask = np.uint64(p.q - 1)
    neg = (np.uint64(p.q) - m) & mask
    return np.where(x < 0, neg, m)


def ring_matvec(zm: np.ndarray, w: np.ndarray, p: FixedPointParams) -> np.ndarray:
    """(zm @ w) mod q over encoded values; result is at scale level 2."""
    zm = np.asarray(zm)
    w = np.asarray(w)
    if zm.ndim != 2 or w.ndim != 1 or zm.shape[1] != w.shape[0]:
        raise DimensionMismatch(f"cannot multiply {zm.shape} by {w.shape}")
    # uint64 wraparound is exact mod 2^64 and q = 2^L divides 2^64, so
    # masking with q - 1 afterwards gives the exact result mod q
    return (np.asarray(zm, dtype=np.uint64) @ np.asarray(w, dtype=np.uint64)) \
        & np.uint64(p.q - 1)


def ring_indicators(u: np.ndarray, p: FixedPointParams) -> np.ndarray:
    """Per-component msb-complement: 1 where the ring value is non-negative."""
    u = np.asarray(u, dtype=np.uint64)
    half = np.uint64(p.q // 2)
    return ((u & np.uint64(p.q - 1)) < half).astype(np.uint8)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Numeric feature matrix with labels in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray
    feature_means: np.ndarray | None = None
    feature_stds: np.ndarray | None = None
    dropped_columns: tuple = ()

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match X rows")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx],
                       self.feature_means, self.feature_stds, self.dropped_columns)


@dataclass
class FoldedMatrix:
    """Rows z_i = (x_i, 1) * y_i; sign(z_i . w) is prediction correctness."""

    Z: np.ndarray

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def dim(self) -> int:
        return self.Z.shape[1]


def standardize(raw: Dataset) -> Dataset:
    """Column-standardized copy using population statistics.

    Zero-variance columns are dropped with a warning; the (mu, sigma) used are
    attached to the returned dataset so test folds can reuse them.
    """
    if raw.n < 2:
        raise EmptyDataset("need at least 2 records to standardize")
    mu = raw.X.mean(axis=0)
    sigma = raw.X.std(axis=0)  # population std
    keep = sigma > 0.0
    if not keep.any():
        raise AllColumnsConstant("every column has zero variance")
    dropped = tuple(int(i) for i in np.flatnonzero(~keep))
    if dropped:
        warnings.warn(f"dropping zero-variance columns {dropped}", stacklevel=2)
    Xs = (raw.X[:, keep] - mu[keep]) / sigma[keep]
    return Dataset(Xs, raw.y.copy(), feature_means=mu[keep],
                   feature_stds=sigma[keep], dropped_columns=dropped)


def standardize_with(raw: Dataset, reference: Dataset) -> Dataset:
    """Apply a training split's (mu, sigma, dropped columns) to another split."""
    if reference.feature_means is None or reference.feature_stds is None:
        raise ValueError("reference dataset carries no standardization stats")
    keep = np.ones(raw.k, dtype=bool)
    for i in reference.dropped_columns:
        keep[i] = False
    Xs = (raw.X[:, keep] - reference.feature_means) / reference.feature_stds
    return Dataset(Xs, raw.y.copy(), reference.feature_means,
                   reference.feature_stds, reference.dropped_columns)


def fold_labels(d: Dataset) -> FoldedMatrix:
    """z_i = (x_i || 1) * y_i. Labels must be exactly -1 or +1."""
    y = np.asarray(d.y, dtype=np.float64)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        bad = sorted(set(np.asarray(d.y)[~np.isin(y, (-1.0, 1.0))].tolist()))
        raise InvalidLabel(f"labels must be in {{-1, +1}}, got {bad}")
    ones = np.ones((d.n, 1))
    return FoldedMatrix(np.hstack([d.X, ones]) * y[:, None])

import math

import numpy as np
import pytest

from blindboost import encoding
from blindboost.encoding import (
    Dataset,
    FixedPointParams,
    decode,
    encode,
    encode_array,
    fold_labels,
    is_negative,
    ring_indicators,
    ring_matvec,
    standardize,
    standardize_with,
)
from blindboost.errors import (
    AllColumnsConstant,
    EmptyDataset,
    InvalidLabel,
    Overflow,
)

P32 = FixedPointParams(precision_bits=7, ring_bits=32)


def test_encode_positive():
    assert encode(1.5, P32) == 192


def test_encode_negative_upper_half():
    assert encode(-1.5, P32) == 2**32 - 192


def test_encode_zero():
    assert encode(0.0, P32) == 0


def test_encode_overflow():
    p = FixedPointParams(precision_bits=7, ring_bits=16)
    with pytest.raises(Overflow):
        encode(300.0, p)


def test_decode_level1():
    assert decode(192, P32) == 1.5
    assert decode(P32.q - 192, P32) == -1.5


def test_decode_level2_product_bound():
    # |decode2(enc(a)*enc(b)) - a*b| <= 2^-b (|a| + |b| + 2^-b), checked
    # against exact float products on random pairs. Ring wide enough that the
    # level-2 product of two values in [-2, 2] stays in the signed range.
    rng = np.random.default_rng(7)
    p = FixedPointParams(precision_bits=7, ring_bits=20)
    for _ in range(10_000):
        a, b = rng.uniform(-2, 2, size=2)
        prod = (encode(a, p) * encode(b, p)) % p.q
        got = decode(prod, p, scale_level=2)
        bound = 2.0**-7 * (abs(a) + abs(b) + 2.0**-7)
        assert abs(got - a * b) <= bound + 1e-12


def test_is_negative_matches_decode_sign_exhaustive():
    p = FixedPointParams(precision_bits=4, ring_bits=10)
    for v in range(p.q):
        dec = decode(v, p)
        assert is_negative(v, p) == (dec < 0), v


def test_is_negative_boundaries():
    assert is_negative(P32.q - 1, P32)
    assert not is_negative(0, P32)


def test_sign_agreement_exact_beyond_one_ulp():
    # exact for x <= -2^-b; magnitudes below one quantum floor to +0
    b = P32.precision_bits
    for x in np.linspace(-2.0, -(2.0 ** -b), 1000):
        assert is_negative(encode(float(x), P32), P32)
    for x in np.linspace(0.0, 2.0, 1000):
        assert not is_negative(encode(float(x), P32), P32)
    assert not is_negative(encode(-(2.0 ** -(b + 1)), P32), P32)


def test_round_trip_small_values():
    for x in np.linspace(-2, 2, 2001):
        assert abs(decode(encode(x, P32), P32) - x) <= 2.0**-7


def test_ring_addition_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a, b = rng.uniform(-50, 50, size=2)
        v = (encode(a, P32) + encode(b, P32)) % P32.q
        assert abs(decode(v, P32) - (a + b)) <= 2 * 2.0**-7


def test_encode_array_matches_scalar():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3, 3, size=257)
    enc = encode_array(xs, P32)
    for x, v in zip(xs, enc):
        assert int(v) == encode(float(x), P32)


def test_ring_matvec_matches_bigint_oracle():
    rng = np.random.default_rng(5)
    p = FixedPointParams.for_dimension(6, precision_bits=7)
    Z = rng.uniform(-2, 2, size=(40, 6))
    w = rng.uniform(-1, 1, size=6)
    Zq = encode_array(Z, p)
    wq = encode_array(w, p)
    got = ring_matvec(Zq, wq, p)
    for i in range(40):
        expect = sum(int(Zq[i, j]) * int(wq[j]) for j in range(6)) % p.q
        assert int(got[i]) == expect


def test_ring_indicators_match_float_sign():
    rng = np.random.default_rng(9)
    p = FixedPointParams.for_dimension(6, precision_bits=7)
    Z = rng.uniform(-1, 1, size=(300, 6))  # |dot| <= 6 < 2^(L-1-2b) = 8
    w = rng.uniform(-1, 1, size=6)
    u = ring_matvec(encode_array(Z, p), encode_array(w, p), p)
    ind = ring_indicators(u, p)
    exact = Z @ w
    # agreement is exact away from the quantization band
    clear = np.abs(exact) > 6 * 2.0**-7
    assert np.array_equal(ind[clear], (exact[clear] > 0).astype(np.uint8))


def test_for_dimension_width():
    p = FixedPointParams.for_dimension(35, precision_bits=7)
    assert p.ring_bits == 2 * 7 + math.ceil(math.log2(35)) + 1


# ---------------------------------------------------------------------------
# datasets


def test_standardize_two_point_column():
    ds = Dataset(np.array([[1.0], [3.0]]), np.array([1, -1]))
    out = standardize(ds)
    assert np.allclose(out.X[:, 0], [-1.0, 1.0])
    assert out.feature_means[0] == 2.0
    assert out.feature_stds[0] == 1.0


def test_standardize_drops_constant_column():
    ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.array([1, 1, -1]))
    with pytest.warns(UserWarning, match="zero-variance"):
        out = standardize(ds)
    assert out.X.shape == (3, 1)
    assert out.dropped_columns == (0,)


def test_standardize_recomputed_means_are_zero():
    rng = np.random.default_rng(42)
    ds = Dataset(rng.uniform(0, 10, size=(351, 34)) * rng.uniform(0.1, 5, size=34),
                 rng.choice([-1, 1], size=351))
    out = standardize(ds)
    assert np.all(np.abs(out.X.mean(axis=0)) < 1e-9)
    assert np.allclose(out.X.std(axis=0), 1.0, atol=1e-9)


def test_standardize_errors():
    with pytest.raises(EmptyDataset):
        standardize(Dataset(np.zeros((1, 2)), np.array([1])))
    with pytest.raises(AllColumnsConstant):
        standardize(Dataset(np.ones((3, 2)), np.array([1, 1, -1])))


def test_standardize_with_reuses_train_stats():
    rng = np.random.default_rng(0)
    train = Dataset(rng.normal(3, 2, size=(50, 4)), rng.choice([-1, 1], 50))
    test = Dataset(rng.normal(3, 2, size=(20, 4)), rng.choice([-1, 1], 20))
    strain = standardize(train)
    stest = standardize_with(test, strain)
    manual = (test.X - strain.feature_means) / strain.feature_stds
    assert np.allclose(stest.X, manual)


def test_fold_labels_values():
    ds = Dataset(np.array([[0.5, -0.2], [1.0, 2.0]]), np.array([-1, 1]))
    fm = fold_labels(ds)
    assert np.allclose(fm.Z[0], [-0.5, 0.2, -1.0])
    assert np.allclose(fm.Z[1], [1.0, 2.0, 1.0])


def test_fold_labels_rejects_bad_labels():
    ds = Dataset(np.ones((2, 2)), np.array([0, 1]))
    with pytest.raises(InvalidLabel):
        fold_labels(ds)


def test_fold_preserves_sign_semantics():
    # sign(z_i . w_i) == sign((w_i . (x_i||1)) * y_i) for random draws
    rng = np.random.default_rng(123)
    X = rng.uniform(-2, 2, size=(1000, 4))
    y = rng.choice([-1, 1], size=1000)
    W = rng.uniform(-1, 1, size=(1000, 5))
    Z = fold_labels(Dataset(X, y)).Z
    lhs = np.sign(np.einsum("ij,ij->i", Z, W))
    rhs = np.sign((np.einsum("ij,ij->i", X, W[:, :4]) + W[:, 4]) * y)
    assert np.array_equal(lhs, rhs)

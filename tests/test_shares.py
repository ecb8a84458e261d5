import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from blindboost import paillier, shares
from blindboost.encoding import FixedPointParams
from blindboost.errors import DimensionMismatch, ShapeMismatch

# chi-square critical value, 255 degrees of freedom, alpha = 0.01
CHI2_CRIT_255_P01 = 310.457


def test_split_forced_arithmetic():
    # q=16: part0 9 and secret 5 force part1 = 12 since 9 + 12 mod 16 = 5

    class FixedRng:
        def integers(self, low, high, size, dtype):
            return np.full(size, 9, dtype=dtype)

    pair = shares.split(np.array([[5]], dtype=np.uint64), 4, FixedRng())
    assert pair.part0[0, 0] == 9
    assert pair.part1[0, 0] == 12


def test_split_reconstruct_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        zm = rng.integers(0, 1 << 20, size=(20, 5), dtype=np.uint64)
        pair = shares.split(zm, 20, rng)
        assert np.array_equal(shares.reconstruct(pair), zm)


def test_zero_shares_reconstruct_zero():
    pair = shares.SharePair(np.zeros((3, 2), dtype=np.uint64),
                            np.zeros((3, 2), dtype=np.uint64), 8)
    assert np.all(shares.reconstruct(pair) == 0)


def test_reconstruct_shape_mismatch():
    pair = shares.SharePair(np.zeros((3, 2), dtype=np.uint64),
                            np.zeros((2, 3), dtype=np.uint64), 8)
    with pytest.raises(ShapeMismatch):
        shares.reconstruct(pair)


def test_share_uniformity_chi_square():
    rng = np.random.default_rng(99)
    zm = rng.integers(0, 256, size=(1000, 100), dtype=np.uint64)
    pair = shares.split(zm, 8, rng)
    counts = np.bincount(pair.part0.ravel().astype(np.int64), minlength=256)
    expected = pair.part0.size / 256
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < CHI2_CRIT_255_P01


def test_share_distribution_independent_of_secret():
    # same splitting randomness, two different secrets: part0 identical
    z1 = np.arange(12, dtype=np.uint64).reshape(3, 4)
    z2 = (np.arange(12, dtype=np.uint64) * 7 + 3).reshape(3, 4) & np.uint64(255)
    p1 = shares.split(z1, 8, np.random.default_rng(5))
    p2 = shares.split(z2, 8, np.random.default_rng(5))
    assert np.array_equal(p1.part0, p2.part0)
    assert not np.array_equal(p1.part1, p2.part1)


def test_mask_sampler_range_and_freshness():
    rng = random.Random(1)
    masks = shares.sample_masks(10_000, 16, rng)
    hi = 1 << (16 + shares.MASK_SECURITY_BITS)
    assert all(0 <= m < hi for m in masks)
    assert len(set(masks)) == len(masks)  # no repeats across draws
    # sampler covers the top and bottom deciles of the range
    assert min(masks) < hi // 10
    assert max(masks) > hi - hi // 10


def test_masked_matvec_single_cell(keypair_512):
    rng = random.Random(2)
    pk = keypair_512.public
    ew = [paillier.encrypt(pk, 2, rng)]
    out = shares.masked_matvec_csp_step(np.array([[1]], dtype=np.uint64),
                                        ew, [7], pk, rng, 8)
    assert paillier.decrypt(keypair_512, out[0]) == 9


def test_masked_matvec_zero_mask(keypair_512):
    rng = random.Random(3)
    pk = keypair_512.public
    z1 = np.array([[3, 4]], dtype=np.uint64)
    ew = [paillier.encrypt(pk, 5, rng), paillier.encrypt(pk, 6, rng)]
    out = shares.masked_matvec_csp_step(z1, ew, [0], pk, rng, 8)
    assert paillier.decrypt(keypair_512, out[0]) == 3 * 5 + 4 * 6


def test_masked_matvec_full_protocol_oracle(keypair_512):
    rng = random.Random(4)
    nprng = np.random.default_rng(4)
    pk = keypair_512.public
    L = 16
    mask = np.uint64((1 << L) - 1)
    zm = nprng.integers(0, 1 << L, size=(10, 4), dtype=np.uint64)
    w = [int(x) for x in nprng.integers(0, 1 << L, size=4)]
    pair = shares.split(zm, L, nprng)
    lam = shares.sample_masks(10, L, rng)
    ew = [paillier.encrypt(pk, wi, rng) for wi in w]
    enc = shares.masked_matvec_csp_step(pair.part1, ew, lam, pk, rng, L)
    dec = [paillier.decrypt(keypair_512, c) for c in enc]
    qp = 1 << (L + shares.MASK_SECURITY_BITS + 1)
    # CSP-side correctness: decrypts to Z1 w + lambda
    for i in range(10):
        expect = (sum(int(pair.part1[i, j]) * w[j] for j in range(4)) + lam[i])
        assert dec[i] == expect
    u0 = shares.masked_matvec_cloud_step(pair.part0, w, [d % qp for d in dec],
                                         FixedPointParams(7, L))
    # (u0 - u1) mod 2^L is the ring value of Z w
    for i in range(10):
        u1 = lam[i] % qp
        got = (u0[i] - u1) % (1 << L)
        expect = sum(int(zm[i, j]) * w[j] for j in range(4)) % (1 << L)
        assert got == expect


@pytest.mark.parametrize("bits", [512, 1024])
def test_masked_matvec_equals_the_row_by_row_loop(monkeypatch, bits):
    # from 1024-bit keys on the rows run on the pool, below on the caller
    kp = paillier.keygen(bits, random.Random(bits))
    pk = kp.public
    pool = ThreadPoolExecutor(1, initializer=paillier._mark_worker)
    monkeypatch.setattr(paillier, "_pool", pool)
    monkeypatch.setattr(paillier, "_workers", 1)
    nprng = np.random.default_rng(bits)
    z1 = nprng.integers(0, 1 << 16, size=(5, 3), dtype=np.uint64)
    z1[1, 2] = 0
    ew = [paillier.encrypt(pk, m, random.Random(m)) for m in (3, 0, 7)]
    lam = shares.sample_masks(5, 16, random.Random(8))
    rng, ref_rng = random.Random(9), random.Random(9)
    try:
        got = shares.masked_matvec_csp_step(z1, ew, lam, pk, rng, 16)
    finally:
        pool.shutdown()
    expect = []
    for i in range(5):
        acc = paillier.encrypt(pk, lam[i] % pk.n, ref_rng)
        for j in range(3):
            if z1[i, j]:
                acc = paillier.he_add(pk, acc, paillier.he_scalar_mul(pk, ew[j], int(z1[i, j])))
        expect.append(acc)
    assert got == expect and rng.getstate() == ref_rng.getstate()


def test_masked_matvec_boundary_mask(keypair_512):
    rng = random.Random(5)
    pk = keypair_512.public
    L = 12
    lam_max = (1 << (L + shares.MASK_SECURITY_BITS)) - 1
    z1 = np.array([[9]], dtype=np.uint64)
    ew = [paillier.encrypt(pk, 3, rng)]
    enc = shares.masked_matvec_csp_step(z1, ew, [lam_max], pk, rng, L)
    dec = paillier.decrypt(keypair_512, enc[0])
    qp = 1 << (L + shares.MASK_SECURITY_BITS + 1)
    u0 = shares.masked_matvec_cloud_step(
        np.array([[2]], dtype=np.uint64), [3], [dec % qp], FixedPointParams(6, L))
    got = (u0[0] - lam_max % qp) % (1 << L)
    assert got == (11 * 3) % (1 << L)
    # the largest share row by the largest w, against the integer reference
    q = 1 << L
    z0 = np.full((2, 3), q - 1, dtype=np.uint64)
    z0[1, 0] = 0
    w, dec = [q - 1] * 3, [lam_max, qp - 1]
    u0 = shares.masked_matvec_cloud_step(z0, w, dec, FixedPointParams(6, L))
    assert u0 == [(sum(int(z) * x for z, x in zip(row, w)) + d) % q
                  for row, d in zip(z0, dec)]
    with pytest.raises(DimensionMismatch):
        shares.masked_matvec_cloud_step(z0, w, dec[:1], FixedPointParams(6, L))


def test_masked_matvec_dimension_mismatch(keypair_512):
    rng = random.Random(6)
    pk = keypair_512.public
    ew = [paillier.encrypt(pk, 1, rng)]
    with pytest.raises(DimensionMismatch):
        shares.masked_matvec_csp_step(np.zeros((2, 3), dtype=np.uint64),
                                      ew, [0, 0], pk, rng, 17)
    with pytest.raises(DimensionMismatch):
        shares.masked_matvec_cloud_step(np.zeros((2, 3), dtype=np.uint64),
                                        [1, 2], [0, 0], FixedPointParams(7, 17))


def test_sign_recovery_through_shares(keypair_512):
    # componentwise sign of the reconstructed difference matches plaintext
    rng = random.Random(7)
    nprng = np.random.default_rng(7)
    pk = keypair_512.public
    p = FixedPointParams.for_dimension(4, precision_bits=7)
    from blindboost.encoding import encode_array, ring_indicators, ring_matvec

    Z = nprng.uniform(-1, 1, size=(8, 3))
    w_real = nprng.uniform(-1, 1, size=3)
    zq = encode_array(Z, p)
    wq = encode_array(w_real, p)
    pair = shares.split(zq, p.ring_bits, nprng)
    lam = shares.sample_masks(8, p.ring_bits, rng)
    ew = [paillier.encrypt(pk, int(v), rng) for v in wq]
    enc = shares.masked_matvec_csp_step(pair.part1, ew, lam, pk, rng, p.ring_bits)
    qp = 1 << (p.ring_bits + shares.MASK_SECURITY_BITS + 1)
    dec = [paillier.decrypt(keypair_512, c) % qp for c in enc]
    u0 = shares.masked_matvec_cloud_step(pair.part0, [int(v) for v in wq], dec, p)
    u = np.array([(u0[i] - lam[i] % qp) % p.q for i in range(8)], dtype=np.uint64)
    got = ring_indicators(u, p)
    expect = ring_indicators(ring_matvec(zq, wq, p), p)
    assert np.array_equal(got, expect)

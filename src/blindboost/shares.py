"""Additive secret sharing over the power-of-two ring and the random-share
matrix-vector multiplication steps.

The shared construction: Cloud holds Z0 and the plaintext classifier w, CSP
holds Z1 = Z - Z0. CSP computes E(Z1 w + lambda) under Cloud's key; after
decryption Cloud holds u0 = Zw + lambda (mod 2^L) and CSP keeps u1 = lambda.
(u0 - u1) mod 2^L is the ring value of Zw at scale level 2. Only those L
bits reach the sign circuit, and Z1 w + lambda stays far below N, so the
decryption is exact and one reduction mod 2^L is all u0 needs. Z1 w is an
integer below 2^(FixedPointParams.product_bits(d)), and lambda is sigma
bits longer.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import paillier
from .encoding import FixedPointParams, ring_matvec
from .errors import DimensionMismatch, ShapeMismatch

MASK_SECURITY_BITS = 40  # sigma: a mask is sigma bits longer than its value


@dataclass
class SharePair:
    """part0 for Cloud, part1 for CSP; part0 + part1 mod q recovers the secret."""

    part0: np.ndarray
    part1: np.ndarray
    ring_bits: int


def split(zm: np.ndarray, ring_bits: int, rng: np.random.Generator) -> SharePair:
    """Uniform part0 over [0, q); part1 = (zm - part0) mod q."""
    zm = np.asarray(zm, dtype=np.uint64)
    q = 1 << ring_bits
    mask = np.uint64(q - 1)
    part0 = rng.integers(0, q, size=zm.shape, dtype=np.uint64)
    part1 = (zm - part0) & mask
    return SharePair(part0=part0, part1=part1, ring_bits=ring_bits)


def reconstruct(s: SharePair) -> np.ndarray:
    if s.part0.shape != s.part1.shape:
        raise ShapeMismatch(f"{s.part0.shape} vs {s.part1.shape}")
    return (s.part0 + s.part1) & np.uint64((1 << s.ring_bits) - 1)


def sample_masks(count: int, value_bits: int, rng: random.Random) -> list:
    """Fresh uniform masks over [0, 2^(value_bits + sigma)) for values below
    2^value_bits; never reused across calls."""
    bits = value_bits + MASK_SECURITY_BITS
    return [rng.getrandbits(bits) for _ in range(count)]


def masked_matvec_csp_step(z1: np.ndarray, ew: list, lam: list,
                           pk: paillier.PublicKey, rng: random.Random,
                           ring_bits: int) -> list:
    """CSP side: E(Z1 w + lambda) via pseudo-homomorphic products.

    z1 entries are ring representatives below 2^ring_bits, the public bound
    of every scalar multiply; ew encrypts w under Cloud's key.
    """
    z1 = np.asarray(z1, dtype=np.uint64)
    if z1.ndim != 2 or z1.shape[1] != len(ew):
        raise DimensionMismatch(f"share has {z1.shape} columns, vector has {len(ew)}")
    masks = paillier.encrypt_many(pk, [int(lam[i]) % pk.n for i in range(z1.shape[0])],
                                  rng)
    return paillier.map_rows(
        pk, lambda i: paillier.he_dot(pk, masks[i], ew, z1[i].tolist(), ring_bits),
        range(z1.shape[0]))


def masked_matvec_cloud_step(z0: np.ndarray, w_ring, decrypted: list,
                             fp: FixedPointParams) -> list:
    """Cloud side: u0 = Z0 w + (Z1 w + lambda) = Zw + lambda, mod 2^L."""
    zw = ring_matvec(z0, w_ring, fp)
    if len(decrypted) != len(zw):
        raise DimensionMismatch(f"{len(decrypted)} decrypted values for {len(zw)} rows")
    return [(int(a) + int(b)) % fp.q for a, b in zip(zw, decrypted)]

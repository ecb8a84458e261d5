"""1-out-of-2 oblivious transfer for wire-label delivery.

Three building blocks:

* ``OTSender`` / ``OTReceiver``: Diffie-Hellman base OT (Chou-Orlandi
  shape) in the prime-order quadratic-residue subgroup of a named
  safe-prime MODP group. The sender publishes A = g^a once per batch; the
  receiver answers B_i = g^{b_i} * A^{c_i} per wire; the sender encrypts
  each pair under H(B_i^a) and H((B_i/A)^a) = H(B_i^a * A^{-a}). Three
  modular exponentiations per transfer, two of them the receiver's. The
  secrets a and b_i are 256-bit exponents (NIST SP 800-56A Rev. 3,
  5.6.1.1.4, allows 2s bits at security strength s), and every received
  element must lie in (1, p-1) with Legendre symbol 1, in both profiles.
* ``OTExtSender`` / ``OTExtReceiver``: semi-honest IKNP OT extension
  (Ishai, Kilian, Nissim and Petrank, CRYPTO 2003). A session runs
  KAPPA = 128 base OTs once, with the roles reversed: the extension
  receiver is the base-OT sender of random 16-byte seed pairs, and the
  extension sender is the base-OT receiver with a secret 128-bit choice
  string s. Every later round of m transfers costs one message of
  KAPPA * ceil(m/8) bytes, a bit-matrix transpose and 3m keyed hashes.
  This is what the protocols' ``base`` OT mode runs: 128 base OTs per
  party pair, once in SETUP, whose exponentiations paillier.fan_out
  spreads over the cores (with libgmp on a 2-core x86 machine: about
  0.07 s of CPU and 0.04 s of wall time in modp-768, 0.18 s on one thread
  in modp-2048), then a few milliseconds of hashing per round (2.6 ms at
  209 transfers, 11 ms at 1216, on the same machine). Its OT bytes fall
  below those of per-wire base OT once a run moves more than about 200
  transfers.
* ``dealer``: a trusted dealer hands the receiver the chosen labels directly.
  Flagged insecure; refused when the secure profile is active.

Labels, label pairs and the seed pairs are garbling's uint8 arrays, (count,
16) and (count, 2, 16), and every step computes on them as such.
"""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .errors import GroupElementInvalid, ModeNotPermittedInSecureProfile, OTFailure
from .garbling import LABEL_BYTES
from .paillier import fan_out, legendre, powmod

# Safe-prime MODP groups: Oakley group 1 (768 bits) and the 2048-bit group 14.
# g = 4 generates the prime-order subgroup of quadratic residues.
_MODP_768 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF", 16)
_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF", 16)


@dataclass(frozen=True)
class Group:
    name: str
    p: int
    g: int

    @property
    def order(self) -> int:
        return (self.p - 1) // 2


GROUPS = {
    "modp-768": Group("modp-768", _MODP_768, 4),
    "modp-2048": Group("modp-2048", _MODP_2048, 4),
}


def _secret(rng: random.Random) -> int:
    """A 256-bit exponent with the top bit set, so every exponentiation by a
    secret runs over the same number of limbs."""
    return rng.getrandbits(255) | 1 << 255


def _validate_element(group: Group, x: int) -> None:
    """x is in the order-q subgroup of p = 2q + 1 iff it is a quadratic
    residue: (x | p) = 1."""
    if not 1 < x < group.p - 1:
        raise GroupElementInvalid(f"element outside (1, p-1) in {group.name}")
    if legendre(x, group.p) != 1:
        raise GroupElementInvalid(f"element outside prime-order subgroup of {group.name}")


def _kdf(elem: int, index: int) -> bytes:
    raw = elem.to_bytes((elem.bit_length() + 7) // 8 or 1, "big")
    return hashlib.blake2s(raw + index.to_bytes(8, "little"),
                           key=b"blindboost-ot-v1", digest_size=LABEL_BYTES).digest()


def _pick(pairs: np.ndarray, bits) -> np.ndarray:
    """Label bits[i] of pair i, for every pair."""
    return pairs[np.arange(len(pairs)), np.asarray(bits, dtype=np.intp) & 1]


class OTSender:
    """Holds the label pairs; one instance per batch."""

    def __init__(self, group: Group, rng: random.Random):
        self.group = group
        self._a = _secret(rng)
        self.A = powmod(group.g, self._a, group.p)
        self._A_neg_a = pow(powmod(self.A, self._a, group.p), -1, group.p)

    def setup_message(self) -> int:
        return self.A

    def respond(self, bs: list, pairs: np.ndarray) -> np.ndarray:
        """Per wire i: (m0 ^ H(B^a), m1 ^ H(B^a * A^{-a})), where
        B^a * A^{-a} = (B/A)^a."""
        if len(bs) != len(pairs):
            raise OTFailure("choice-message count does not match pair count")
        p = self.group.p

        def one(item):
            i, b = item
            _validate_element(self.group, b)
            b_a = powmod(b, self._a, p)
            return _kdf(b_a, i) + _kdf(b_a * self._A_neg_a % p, i)

        keys = np.frombuffer(b"".join(fan_out(one, enumerate(bs))), dtype=np.uint8)
        return pairs ^ keys.reshape(pairs.shape)


class OTReceiver:
    def __init__(self, group: Group, rng: random.Random, A: int):
        _validate_element(group, A)
        self.group = group
        self.A = A
        self._rng = rng
        self._secrets = None
        self._choices = None

    def choose(self, bits: list) -> list:
        """B_i = g^{b_i} * A^{c_i}. Every secret is drawn here, in order,
        before any exponentiation, so the rng's use does not depend on how
        fan_out splits the batch."""
        self._secrets = [_secret(self._rng) for _ in bits]
        self._choices = [int(c) & 1 for c in bits]
        p = self.group.p

        def one(item):
            b, c = item
            m = powmod(self.group.g, b, p)
            return m * self.A % p if c else m

        return fan_out(one, zip(self._secrets, self._choices))

    def finish(self, responses: np.ndarray) -> np.ndarray:
        if self._secrets is None:
            raise OTFailure("choose() was not called")
        if responses.shape != (len(self._secrets), 2, LABEL_BYTES):
            raise OTFailure(f"{responses.shape} responses for {len(self._secrets)} choices")
        p = self.group.p

        def one(item):
            i, b = item
            return _kdf(powmod(self.A, b, p), i)

        keys = np.frombuffer(b"".join(fan_out(one, enumerate(self._secrets))), dtype=np.uint8)
        return _pick(responses, self._choices) ^ keys.reshape(-1, LABEL_BYTES)


KAPPA = 128                 # base OTs per extension session
_ROW_BYTES = KAPPA // 8     # one row of the extension matrix
_PRG_BLOCK = 64             # BLAKE2b digest bytes per counter value


class _Prg:
    """Counter-mode keyed BLAKE2b streams, one per seed, read in lockstep.

    Each read continues after the last block handed out, so no part of a
    column stream is ever used twice."""

    def __init__(self, seeds: np.ndarray):
        self._keyed = [hashlib.blake2b(key=k.tobytes(), digest_size=_PRG_BLOCK,
                                       person=b"blindboost-prg") for k in seeds]
        self._block = 0

    def read(self, nbytes: int) -> np.ndarray:
        """The next `nbytes` of every stream, as a (seeds, nbytes) array."""
        nblocks = -(-nbytes // _PRG_BLOCK)
        counters = [(self._block + i).to_bytes(8, "little") for i in range(nblocks)]
        self._block += nblocks
        out = bytearray()
        for keyed in self._keyed:
            for c in counters:
                h = keyed.copy()
                h.update(c)
                out += h.digest()
        cols = np.frombuffer(bytes(out), dtype=np.uint8)
        return cols.reshape(len(self._keyed), nblocks * _PRG_BLOCK)[:, :nbytes]


def _rows(cols: np.ndarray, m: int) -> np.ndarray:
    """Transpose KAPPA packed columns of m bits into m packed 16-byte rows."""
    return np.packbits(np.unpackbits(cols, axis=1)[:, :m].T, axis=1)


def _hash_rows(rows: np.ndarray, first: int) -> np.ndarray:
    """H(j, row_j) for j = first, first+1, ...: keyed BLAKE2s, tweaked by the
    session-wide transfer index j."""
    keyed = hashlib.blake2s(key=b"blindboost-iknp-v1", digest_size=LABEL_BYTES)
    blob = rows.tobytes()
    out = bytearray()
    for j in range(len(rows)):
        h = keyed.copy()
        h.update((first + j).to_bytes(8, "little"))
        h.update(blob[j * _ROW_BYTES:(j + 1) * _ROW_BYTES])
        out += h.digest()
    return np.frombuffer(bytes(out), dtype=np.uint8).reshape(len(rows), LABEL_BYTES)


class OTExtReceiver:
    """IKNP extension receiver: the chooser (the garbled-circuit evaluator).

    It is the base-OT *sender* of KAPPA random seed pairs (k0_i, k1_i). One
    session serves every round of a run."""

    def __init__(self, group: Group, rng: random.Random):
        self._base = OTSender(group, rng)
        seeds = b"".join([rng.getrandbits(128).to_bytes(LABEL_BYTES, "big")
                          for _ in range(2 * KAPPA)])
        self._seeds = np.frombuffer(seeds, dtype=np.uint8).reshape(KAPPA, 2, LABEL_BYTES)
        self._g0 = _Prg(self._seeds[:, 0])
        self._g1 = _Prg(self._seeds[:, 1])
        self._next = 0              # session-wide index of the next transfer
        self._pending = None

    def setup_message(self) -> int:
        return self._base.setup_message()

    def base_respond(self, bs: list) -> list:
        """The KAPPA base OTs: seed pair i, one half per base choice bit."""
        return self._base.respond(bs, self._seeds)

    def choose(self, bits: list) -> bytes:
        """U = T ^ G(k1) ^ r, KAPPA packed columns of ceil(m/8) bytes, where
        T = G(k0) and r are the choice bits."""
        r = np.asarray([int(c) & 1 for c in bits], dtype=np.uint8)
        nbytes = (len(r) + 7) // 8
        t = self._g0.read(nbytes)
        u = t ^ self._g1.read(nbytes) ^ np.packbits(r)
        self._pending = (r, _rows(t, len(r)), self._next)
        self._next += len(r)
        return u.tobytes()

    def finish(self, responses: np.ndarray) -> np.ndarray:
        """The chosen label x_{r_j} = y_{r_j} ^ H(j, t_j) per transfer."""
        if self._pending is None:
            raise OTFailure("choose() was not called")
        r, t_rows, first = self._pending
        self._pending = None
        if responses.shape != (len(r), 2, LABEL_BYTES):
            raise OTFailure(f"{responses.shape} responses for {len(r)} choices")
        return _pick(responses, r) ^ _hash_rows(t_rows, first)


class OTExtSender:
    """IKNP extension sender: holds the label pairs (the garbler).

    It is the base-OT *receiver*, with a secret KAPPA-bit choice string s;
    it learns k_i^{s_i} of each seed pair."""

    def __init__(self, group: Group, rng: random.Random, A: int):
        self._base = OTReceiver(group, rng, A)
        s = rng.getrandbits(KAPPA).to_bytes(_ROW_BYTES, "big")
        self._s_row = np.frombuffer(s, dtype=np.uint8)
        self._s_bits = np.unpackbits(self._s_row)
        self._prg = None
        self._next = 0

    def base_choose(self) -> list:
        return self._base.choose(self._s_bits.tolist())

    def base_finish(self, responses: np.ndarray) -> None:
        self._prg = _Prg(self._base.finish(responses))

    def respond(self, u: bytes, pairs: np.ndarray) -> np.ndarray:
        """Per transfer j: (x0 ^ H(j, q_j), x1 ^ H(j, q_j ^ s)), where
        Q = G(k^s) ^ s*U holds rows q_j = t_j ^ r_j*s."""
        if self._prg is None:
            raise OTFailure("the base OTs have not finished")
        m = len(pairs)
        nbytes = (m + 7) // 8
        if len(u) != KAPPA * nbytes:
            raise OTFailure(f"U holds {len(u)} bytes, expected {KAPPA * nbytes}")
        u = np.frombuffer(u, dtype=np.uint8).reshape(KAPPA, nbytes)
        q = self._prg.read(nbytes) ^ (u * self._s_bits[:, None])
        q_rows = _rows(q, m)
        first = self._next
        self._next += m
        return pairs ^ np.stack([_hash_rows(q_rows, first),
                                 _hash_rows(q_rows ^ self._s_row, first)], axis=1)


def dealer_choose(pairs: np.ndarray, bits: list, secure_profile: bool = False) -> np.ndarray:
    """Trusted-dealer shortcut; test mode only."""
    if secure_profile:
        raise ModeNotPermittedInSecureProfile("dealer OT is a test mode")
    if len(pairs) != len(bits):
        raise OTFailure("pair/choice count mismatch")
    return _pick(pairs, bits)

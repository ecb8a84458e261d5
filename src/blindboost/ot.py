"""1-out-of-2 oblivious transfer for wire-label delivery.

Three building blocks:

* ``OTSender`` / ``OTReceiver``: Diffie-Hellman random base OT
  (Chou-Orlandi shape) in the prime-order quadratic-residue subgroup of a
  named safe-prime MODP group. The sender publishes A = g^a once per
  batch and the receiver answers B_i = g^{b_i} * A^{c_i} per wire; the
  sender's keys are H(B_i^a) and H((B_i/A)^a) = H(B_i^a * A^{-a}), the
  receiver's H(A^{b_i}). Three modular exponentiations per transfer, two
  of them the receiver's. The secrets a and b_i are uniform 256-bit
  exponents (NIST SP 800-56A Rev. 3, 5.6.1.1.4, allows 2s bits at
  security strength s), and every received element must lie in (1, p-1)
  with Legendre symbol 1, in both profiles.
* ``OTExtSender`` / ``OTExtReceiver``: semi-honest IKNP OT extension
  (Ishai, Kilian, Nissim and Petrank, CRYPTO 2003) as correlated OT
  (Asharov, Lindell, Schneider and Zohner, CCS 2013). A session runs
  KAPPA = 128 random base OTs once, with the roles reversed: the base-OT
  sender's key pairs seed the extension receiver's column streams, and
  the keys of the base-OT receiver, whose choice string is a secret
  128-bit s, seed the extension sender's; s, its permute bit set, is the
  run's free-XOR delta. A round of m transfers is one message U of
  KAPPA * ceil(m/8) bytes and a transpose on each side: the sender's rows
  q_j are the 0-labels and the receiver's rows t_j = q_j ^ r_j*s the
  labels of its choice bits r_j, so nothing is hashed and nothing goes back.
  This is what the protocols' ``base`` OT mode runs: 128 base OTs per
  party pair, once in SETUP, whose exponentiations paillier.fan_out
  spreads over the cores (with libgmp on a 2-core x86 machine: about
  0.07 s of CPU and 0.04 s of wall time in modp-768, 0.18 s on one thread
  in modp-2048), then 16 bytes per transfer. Its OT bytes fall below
  those of per-wire base OT once a run moves more than about 110
  transfers.
* ``dealer``: a trusted dealer hands the receiver the chosen labels directly.
  Flagged insecure; ``ProtocolConfig`` refuses it in the secure profile.

Labels, keys, label pairs and key pairs are garbling's uint8 arrays, (count,
16) and (count, 2, 16), and every step computes on them as such.
"""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .errors import GroupElementInvalid, OTFailure
from .garbling import LABEL_BYTES, random_delta
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


SECRET_BITS = 256  # the public bound of every exponentiation by a secret


def _secret(rng: random.Random) -> int:
    """A uniform exponent below 2^SECRET_BITS."""
    return rng.getrandbits(SECRET_BITS)


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


class OTSender:
    """The random base OTs' key pairs; one instance per batch."""

    def __init__(self, group: Group, rng: random.Random):
        self.group = group
        self._a = _secret(rng)
        self.A = powmod(group.g, self._a, group.p, SECRET_BITS)
        self._A_neg_a = pow(powmod(self.A, self._a, group.p, SECRET_BITS), -1, group.p)

    def setup_message(self) -> int:
        return self.A

    def respond(self, bs: list) -> np.ndarray:
        """The key pair (H(B^a), H(B^a * A^{-a})) of each wire, where
        B^a * A^{-a} = (B/A)^a, as a (len(bs), 2, 16) array."""
        p = self.group.p

        def one(item):
            i, b = item
            _validate_element(self.group, b)
            b_a = powmod(b, self._a, p, SECRET_BITS)
            return _kdf(b_a, i) + _kdf(b_a * self._A_neg_a % p, i)

        keys = np.frombuffer(b"".join(fan_out(one, enumerate(bs))), dtype=np.uint8)
        return keys.reshape(len(bs), 2, LABEL_BYTES)


class OTReceiver:
    def __init__(self, group: Group, rng: random.Random, A: int):
        _validate_element(group, A)
        self.group = group
        self.A = A
        self._rng = rng
        self._secrets = None

    def choose(self, bits: list) -> list:
        """B_i = g^{b_i} * A^{c_i}. Every secret is drawn here, in order,
        before any exponentiation, so the rng's use does not depend on how
        fan_out splits the batch."""
        self._secrets = [_secret(self._rng) for _ in bits]
        p = self.group.p

        def one(item):
            b, c = item
            m = powmod(self.group.g, b, p, SECRET_BITS)
            return m * self.A % p if c else m

        return fan_out(one, zip(self._secrets, [int(c) & 1 for c in bits]))

    def finish(self) -> np.ndarray:
        """The key of each choice, H(A^{b_i}), as a (choices, 16) array."""
        if self._secrets is None:
            raise OTFailure("choose() was not called")
        p = self.group.p

        def one(item):
            i, b = item
            return _kdf(powmod(self.A, b, p, SECRET_BITS), i)

        keys = np.frombuffer(b"".join(fan_out(one, enumerate(self._secrets))), dtype=np.uint8)
        return keys.reshape(-1, LABEL_BYTES)


KAPPA = 8 * LABEL_BYTES     # base OTs per extension session: one row is a label
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


class OTExtReceiver:
    """IKNP extension receiver: the chooser (the garbled-circuit evaluator).

    It is the base-OT *sender*: its KAPPA key pairs (k0_i, k1_i) seed the
    column streams G(k0) and G(k1). One session serves every round of a
    run."""

    def __init__(self, group: Group, rng: random.Random):
        self._base = OTSender(group, rng)
        self._g0 = self._g1 = None

    def setup_message(self) -> int:
        return self._base.setup_message()

    def base_respond(self, bs: list) -> None:
        """The KAPPA base OTs: the key pairs of the extension sender's B's
        seed the column streams. Nothing goes back."""
        if len(bs) != KAPPA:
            raise OTFailure(f"{len(bs)} base-OT choice messages, expected {KAPPA}")
        keys = self._base.respond(bs)
        self._g0, self._g1 = _Prg(keys[:, 0]), _Prg(keys[:, 1])

    def extend(self, bits: list) -> tuple:
        """(U, t): U = T ^ G(k1) ^ r, KAPPA packed columns of ceil(m/8)
        bytes, for the sender, and the rows t_j of T = G(k0), the labels of
        the choice bits r_j."""
        if self._g0 is None:
            raise OTFailure("the base OTs have not run")
        r = np.asarray([int(c) & 1 for c in bits], dtype=np.uint8)
        nbytes = (len(r) + 7) // 8
        t = self._g0.read(nbytes)
        u = t ^ self._g1.read(nbytes) ^ np.packbits(r)
        return u.tobytes(), _rows(t, len(r))


class OTExtSender:
    """IKNP extension sender (the garbler).

    It is the base-OT *receiver*, with a secret KAPPA-bit choice string s,
    its permute bit (bit 0 of byte 0) set, which is `delta`; its keys
    k_i^{s_i} seed the column streams G(k^s)."""

    def __init__(self, group: Group, rng: random.Random, A: int):
        self._base = OTReceiver(group, rng, A)
        self.delta = random_delta(rng)
        self._s_bits = np.unpackbits(self.delta)
        self._prg = None

    def base_choose(self) -> list:
        return self._base.choose(self._s_bits.tolist())

    def base_finish(self) -> None:
        self._prg = _Prg(self._base.finish())

    def extend(self, u: bytes, m: int) -> np.ndarray:
        """The rows q_j = t_j ^ r_j*delta of Q = G(k^s) ^ s*U, the
        0-labels of the receiver's m wires."""
        if self._prg is None:
            raise OTFailure("the base OTs have not finished")
        nbytes = (m + 7) // 8
        if len(u) != KAPPA * nbytes:
            raise OTFailure(f"U holds {len(u)} bytes, expected {KAPPA * nbytes}")
        u = np.frombuffer(u, dtype=np.uint8).reshape(KAPPA, nbytes)
        return _rows(self._prg.read(nbytes) ^ (u * self._s_bits[:, None]), m)


def dealer_choose(pairs: np.ndarray, bits: list) -> np.ndarray:
    """Trusted-dealer shortcut; test mode only."""
    if len(pairs) != len(bits):
        raise OTFailure("pair/choice count mismatch")
    return pairs[np.arange(len(pairs)), np.asarray(bits, dtype=np.intp) & 1]

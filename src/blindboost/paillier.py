"""Paillier additive homomorphic encryption.

Plaintexts are integers in [0, N). Ring values (mod q = 2^L) are lifted into
Z_N unchanged; every homomorphic result is reduced mod q right after
decryption by the caller. The generator is fixed to g = N + 1 and scalar
multiplication is ciphertext exponentiation c^s mod N^2.

Encryption is the short-exponent variant of Damgard, Jurik and Nielsen
(IJIS 2010): the public key carries h_N = h^N mod N^2 for h = -x^2 mod N,
and c = (1 + mN) h_N^a mod N^2 for a fresh ceil(k/2)-bit a, where k is the
bit length of N. It replaces Paillier's r^N mod N^2, whose exponent is k
bits long, with an exponent half that length.

``powmod`` is the package's one big-number exponentiation: key generation,
encryption, decryption, scalar multiplication and the base OTs in ``ot``
all run through it. ``legendre`` is the base OTs' subgroup check.

``encrypt_many``, ``decrypt_many`` and ``he_matvec`` (from 1024-bit keys
on) split a batch between the calling thread and a module-level thread
pool with one worker fewer than the process's usable CPUs (none on one
CPU); libgmp's powm releases the GIL, so the chunks run on separate cores. Each element still goes
through the public per-element function, and every encryption exponent is
drawn on the calling thread in element order, so ciphertexts and rng
states do not depend on the number of CPUs.
"""

import ctypes
import ctypes.util
import hashlib
import math
import os
import random
import threading
import types
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DimensionMismatch,
    KeyMismatch,
    MalformedMessage,
    PlaintextOutOfRange,
    PrimeGenFailure,
)


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct; only its size matters here."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                ("limbs", ctypes.c_void_p)]


def _load_gmp():
    """The system libgmp's mpz_{init,clear,import,export,powm_sec,jacobi}
    through ctypes, or None where the library or one of the symbols is
    missing."""
    path = ctypes.util.find_library("gmp")
    if path is None:
        return None
    mpz_p, size_t, c_int = ctypes.POINTER(_Mpz), ctypes.c_size_t, ctypes.c_int
    signatures = {
        "mpz_init": [mpz_p],
        "mpz_clear": [mpz_p],
        "mpz_import": [mpz_p, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p],
        "mpz_export": [ctypes.c_char_p, ctypes.POINTER(size_t), c_int, size_t, c_int,
                       size_t, mpz_p],
        "mpz_powm_sec": [mpz_p, mpz_p, mpz_p, mpz_p],
        "mpz_jacobi": [mpz_p, mpz_p],
    }
    try:
        lib = ctypes.CDLL(path)
        fns = {name: getattr(lib, "__g" + name) for name in signatures}
    except (OSError, AttributeError):  # pragma: no cover - depends on environment
        return None
    for name, argtypes in signatures.items():
        fns[name].argtypes = argtypes
    fns["mpz_export"].restype = ctypes.c_void_p
    fns["mpz_jacobi"].restype = c_int
    return types.SimpleNamespace(**fns)


_gmp = _load_gmp()


def _with_mpz(gmp, values, fn):
    """fn(r, *xs) on a fresh libgmp integer r and libgmp copies xs of the
    non-negative ints `values`, all cleared after."""
    r, *xs = z = list((_Mpz * (1 + len(values)))())
    for x in z:
        gmp.mpz_init(x)
    try:
        for x, v in zip(xs, values):
            # whole bytes, least significant first, no nail bits
            size = (v.bit_length() + 7) // 8
            gmp.mpz_import(x, size, -1, 1, 0, 0, v.to_bytes(size, "little"))
        return fn(r, *xs)
    finally:
        for x in z:
            gmp.mpz_clear(x)


def powmod(base: int, exp: int, mod: int) -> int:
    """base**exp mod mod, equal to builtin pow.

    Runs GMP's constant-time mpz_powm_sec through ctypes, which releases
    the GIL for the call, so two party threads exponentiate in parallel.
    A zero exponent runs it on exponent 1 and returns 1, so a secret 0
    takes the time of any other one-limb exponent. Builtin pow covers what
    mpz_powm_sec does not take (exp < 0, an even modulus, mod < 3) and
    machines without libgmp.
    """
    gmp = _gmp
    if gmp is None or exp < 0 or not mod & 1 or mod < 3:
        return pow(base, exp, mod)
    width = (mod.bit_length() + 7) // 8

    def powm(r, b, e, m):
        gmp.mpz_powm_sec(r, b, e, m)
        out = ctypes.create_string_buffer(width)  # zero-filled past the result
        gmp.mpz_export(out, None, -1, 1, 0, 0, r)
        return int.from_bytes(out.raw, "little")

    r = _with_mpz(gmp, (base % mod, exp or 1, mod), powm)
    return r if exp else 1


def legendre(x: int, p: int) -> int:
    """The Legendre symbol (x | p) of an odd prime p: 1, -1 or 0.

    Runs GMP's mpz_jacobi, which is not constant time: for public x only.
    Machines without libgmp get Euler's criterion x^((p-1)/2) mod p.
    """
    gmp = _gmp
    if gmp is None:
        r = pow(x, (p - 1) // 2, p)
        return -1 if r == p - 1 else r
    return _with_mpz(gmp, (x % p, p), lambda _, a, n: gmp.mpz_jacobi(a, n))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


_in_worker = threading.local()


def _mark_worker():
    _in_worker.flag = True


_workers = _usable_cpus() - 1
_pool = (ThreadPoolExecutor(_workers, thread_name_prefix="paillier",
                            initializer=_mark_worker)
         if _workers > 0 else None)


def fan_out(fn, items) -> list:
    """[fn(x) for x in items], split into contiguous chunks: the first runs
    on the calling thread, the rest on the pool. A call made from a pool
    worker runs inline, so chunks never wait on the pool themselves."""
    items = list(items)
    pool = _pool
    if pool is None or len(items) < 2 or getattr(_in_worker, "flag", False):
        return [fn(x) for x in items]
    step = -(-len(items) // (_workers + 1))
    futures = [pool.submit(lambda chunk: [fn(x) for x in chunk], items[i:i + step])
               for i in range(step, len(items), step)]
    try:
        out = [fn(x) for x in items[:step]]
    finally:
        wait(futures)
    for f in futures:
        out += f.result()
    return out


_SIEVE_LIMIT = 2000
_SMALL_PRIMES = frozenset(p for p in range(2, _SIEVE_LIMIT)
                          if all(p % d for d in range(2, math.isqrt(p) + 1)))
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    """Membership up to the sieve limit; past it, one gcd against the
    product of the primes below the limit, then `rounds` Miller-Rabin
    rounds. Only the rounds draw from rng, one base each."""
    if n <= _SIEVE_LIMIT:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random, max_tries: int = 100_000) -> int:
    """A `bits`-bit prime that is 3 mod 4, as DJN pick p and q; one
    rng.getrandbits(bits) per candidate.

    Survivors of the sieve get 5 Miller-Rabin rounds from 1024 bits on: the
    count FIPS 186-4 Appendix C.3 gives for the random 1024-bit p and q of a
    2048-bit modulus (Table C.3, error probability at most 2^-112). Smaller
    primes get 40.
    """
    # Top two bits forced so the product of two such primes has exactly 2*bits bits.
    top = (1 << (bits - 1)) | (1 << (bits - 2))
    rounds = 5 if bits >= 1024 else 40
    for _ in range(max_tries):
        cand = rng.getrandbits(bits) | top | 3
        if _is_probable_prime(cand, rng, rounds):
            return cand
    raise PrimeGenFailure(f"no {bits}-bit prime found in {max_tries} tries")


@dataclass(frozen=True)
class PublicKey:
    """N and DJN's fixed base; the generator and the key size follow from N."""

    n: int
    h_n: int  # DJN's fixed base h^N mod N^2

    @property
    def g(self) -> int:
        return self.n + 1

    @property
    def key_bits(self) -> int:
        return self.n.bit_length()

    @property
    def alpha_bits(self) -> int:
        """Length of the DJN encryption exponent: ceil(k/2) bits for a k-bit N."""
        return (self.key_bits + 1) // 2

    @cached_property
    def n_sq(self) -> int:
        return self.n * self.n

    @cached_property
    def fingerprint(self) -> bytes:
        return hashlib.blake2s(self.n.to_bytes((self.n.bit_length() + 7) // 8, "big"),
                               digest_size=8).digest()


@dataclass(frozen=True)
class PrivateKey:
    lam: int
    mu: int
    p: int
    q: int

    # textbook CRT decryption constants (Paillier 1999, section 7): with
    # g = N + 1, h_p = L_p(g^(p-1) mod p^2)^-1 = (-q)^-1 mod p, likewise h_q

    @cached_property
    def hp(self) -> int:
        return pow(-self.q, -1, self.p)

    @cached_property
    def hq(self) -> int:
        return pow(-self.p, -1, self.q)

    @cached_property
    def q_inv(self) -> int:
        """q^-1 mod p."""
        return pow(self.q, -1, self.p)


def _djn_base(x: int, p: int, q: int) -> int:
    """h_N = h^N mod N^2 for h = -x^2 mod N, by CRT over p^2 and q^2.

    The exponent N is reduced mod phi(p^2) = p(p-1), and likewise for q.
    """
    n = p * q
    h = -x * x % n
    pp, qq = p * p, q * q
    a_p = powmod(h, n % (p * (p - 1)), pp)
    a_q = powmod(h, n % (q * (q - 1)), qq)
    return a_q + qq * ((a_p - a_q) * pow(qq, -1, pp) % pp)


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    secret: PrivateKey


@dataclass(frozen=True)
class Ciphertext:
    value: int
    key_id: bytes


def keygen(key_bits: int, rng: random.Random) -> KeyPair:
    """Deterministic key pair for a seeded rng; 512 bits is the test profile."""
    if key_bits not in (512, 1024, 2048):
        raise ValueError("key_bits must be one of 512, 1024, 2048")
    half = key_bits // 2
    for _ in range(64):
        p = _random_prime(half, rng)
        q = _random_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != key_bits:
            continue
        if math.gcd(n, (p - 1) * (q - 1)) != 1:
            continue
        lam = (p - 1) * (q - 1) // math.gcd(p - 1, q - 1)  # lcm
        # mu = (L(g^lam mod n^2))^-1 mod n; with g = n+1 this is lam^-1 mod n.
        mu = pow(lam, -1, n)
        while True:
            x = rng.randrange(1, n)
            if math.gcd(x, n) == 1:
                break
        public = PublicKey(n=n, h_n=_djn_base(x, p, q))
        return KeyPair(public=public, secret=PrivateKey(lam=lam, mu=mu, p=p, q=q))
    raise PrimeGenFailure("could not assemble a valid modulus")


def encrypt(pk: PublicKey, m: int, rng: random.Random) -> Ciphertext:
    """Probabilistic encryption of m in [0, N): (1 + mN) h_N^a mod N^2.

    The exponent a is a fresh secret of pk.alpha_bits bits, so it goes
    through powmod's constant-time kernel.
    """
    m = int(m)
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange(f"plaintext must be in [0, N), got {m}")
    alpha = rng.getrandbits(pk.alpha_bits)
    c = (1 + m * pk.n) * powmod(pk.h_n, alpha, pk.n_sq) % pk.n_sq
    return Ciphertext(value=c, key_id=pk.fingerprint)


class _Drawn:
    """A pre-drawn encryption exponent, served as rng.getrandbits."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: int):
        self.alpha = alpha

    def getrandbits(self, bits: int) -> int:
        return self.alpha


def encrypt_many(pk: PublicKey, ms, rng: random.Random) -> list:
    """[encrypt(pk, m, rng) for m in ms], run by fan_out: the exponents are
    drawn here, in order, so the ciphertexts and rng's state are the same."""
    drawn = [(m, _Drawn(rng.getrandbits(pk.alpha_bits))) for m in ms]
    return fan_out(lambda md: encrypt(pk, md[0], md[1]), drawn)


def decrypt(kp: KeyPair, c: Ciphertext) -> int:
    """Textbook CRT decryption: m_p = L_p(c^(p-1) mod p^2) h_p mod p,
    likewise mod q, recombined by CRT; equal to _decrypt_plain for every c
    coprime to N (asserted by the test suite)."""
    if c.key_id != kp.public.fingerprint:
        raise KeyMismatch("ciphertext was produced under a different key")
    sk = kp.secret
    p, q = sk.p, sk.q
    mp = (powmod(c.value, p - 1, p * p) - 1) // p * sk.hp % p
    mq = (powmod(c.value, q - 1, q * q) - 1) // q * sk.hq % q
    return mq + q * ((mp - mq) * sk.q_inv % p)


def decrypt_many(kp: KeyPair, cs) -> list:
    """[decrypt(kp, c) for c in cs], run by fan_out."""
    return fan_out(lambda c: decrypt(kp, c), cs)


def _decrypt_plain(kp: KeyPair, c: int) -> int:
    """L(c^lam mod N^2) mu mod N; the test oracle for decrypt."""
    n = kp.public.n
    x = powmod(c, kp.secret.lam, n * n)
    return ((x - 1) // n) * kp.secret.mu % n


def he_add(pk: PublicKey, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    if c1.key_id != c2.key_id or c1.key_id != pk.fingerprint:
        raise KeyMismatch("operands are under different keys")
    return Ciphertext((c1.value * c2.value) % pk.n_sq, c1.key_id)


def he_scalar_mul(pk: PublicKey, c: Ciphertext, s: int) -> Ciphertext:
    if c.key_id != pk.fingerprint:
        raise KeyMismatch("ciphertext is under a different key")
    s = int(s)
    if not 0 <= s < pk.n:
        raise PlaintextOutOfRange(f"scalar must be in [0, N), got {s}")
    return Ciphertext(powmod(c.value, s, pk.n_sq), c.key_id)


def encrypt_raw(pk: PublicKey, m: int) -> Ciphertext:
    """Deterministic encryption (r = 1); only safe as an addend to a
    probabilistic ciphertext."""
    m = int(m)
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange(f"plaintext must be in [0, N), got {m}")
    return Ciphertext((1 + m * pk.n) % pk.n_sq, pk.fingerprint)


# ---------------------------------------------------------------------------
# slot packing: many small plaintexts in one, `width` bits apiece
#
# Values are taken in chunks of `slots`; within a chunk the first value lands
# in the highest used slot. A packed plaintext is the sum of its values, each
# shifted by slot_shifts, so the sum of a chunk's E(x_i * 2^shift_i) is one.


def slot_count(pk: PublicKey, width: int) -> int:
    """Slots of `width` bits per plaintext: (bits(N) - 1) // width, so a
    packed plaintext stays below N."""
    slots = (pk.key_bits - 1) // width
    if slots < 1:
        raise PlaintextOutOfRange(f"a {width}-bit slot does not fit under N")
    return slots


def slot_shifts(count: int, width: int, slots: int) -> list:
    """The bit offset of each of `count` values in its packed plaintext:
    width * (used - 1 - i mod slots), where `used` is the number of values
    in value i's chunk."""
    return [width * (min(slots, count - i // slots * slots) - 1 - i % slots)
            for i in range(count)]


def pack_slots(values, width: int, slots: int) -> list:
    """One plaintext per chunk of `slots` values, each value below 2^width."""
    shifted = [v << s for v, s in zip(values, slot_shifts(len(values), width, slots))]
    return [sum(shifted[i:i + slots]) for i in range(0, len(shifted), slots)]


def unpack_slots(packed, width: int, slots: int, count: int) -> list:
    """Inverse of pack_slots for `count` values; MalformedMessage unless
    there are ceil(count / slots) plaintexts with no bits above their last
    used slot."""
    if len(packed) != -(-count // slots):
        raise MalformedMessage(f"{len(packed)} packed plaintexts for {count} values "
                               f"in {slots} slots")
    shifts = slot_shifts(count, width, slots)
    for i, p in enumerate(packed):
        if p >> (shifts[i * slots] + width):  # above the chunk's first, highest slot
            raise MalformedMessage(f"packed plaintext {i} has bits above its used slots")
    mask = (1 << width) - 1
    return [(packed[i // slots] >> s) & mask for i, s in enumerate(shifts)]


def encrypt_matrix(pk: PublicKey, zm, rng: random.Random) -> list:
    """Row-major encrypt_many, as a list of rows of ciphertexts: the
    exponents are drawn in row-major order."""
    flat = iter(encrypt_many(pk, [int(v) for row in zm for v in row], rng))
    return [[next(flat) for _ in row] for row in zm]


# Below 1024-bit keys a row of short scalar multiplies spends most of its
# time holding the GIL, in the ctypes marshalling around a short powm: on
# the pool, a 512-bit SecSh+GC run's scalar multiplies took 70% more CPU
# time and no less wall time. From 1024 bits on the powm dominates.
_ROW_POOL_MIN_BITS = 1024


def map_rows(pk: PublicKey, fn, rows) -> list:
    """[fn(row) for row in rows] for rows of scalar multiplies under pk:
    fan_out from 1024-bit keys on, on the calling thread below that."""
    if pk.n.bit_length() < _ROW_POOL_MIN_BITS:
        return [fn(row) for row in rows]
    return fan_out(fn, rows)


def he_dot(pk: PublicKey, acc: Ciphertext, cts, scalars) -> Ciphertext:
    """acc + sum_j s_j * c_j under pk: one he_scalar_mul and one he_add per
    ciphertext, a zero scalar included, so each ciphertext's key is checked."""
    for c, s in zip(cts, scalars):
        acc = he_add(pk, acc, he_scalar_mul(pk, c, s))
    return acc


def he_matvec(pk: PublicKey, rows, w) -> list:
    """Component i encrypts sum_j z_ij * w_j over Z_N (ring values, level 2),
    for rows of ciphertexts under pk.

    w entries are plaintext ring representatives in [0, q). The rows run
    through map_rows.
    """
    w = [int(x) for x in w]
    for row in rows:
        if len(row) != len(w):
            raise DimensionMismatch(f"matrix row has {len(row)} columns, "
                                    f"vector has {len(w)}")
    return map_rows(pk, lambda row: he_dot(pk, encrypt_raw(pk, 0), row, w), rows)


# ---------------------------------------------------------------------------
# serialization: the package's one integer codec. A list of non-negative
# integers is a 4-byte big-endian count, then each integer as a 4-byte
# length and its big-endian bytes. protocol.wire re-exports it with its
# bound checks, require_bytes and expect_end.


def pack_bigints(xs) -> bytes:
    out = [len(xs).to_bytes(4, "big")]
    for x in map(int, xs):
        raw = x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
        out += (len(raw).to_bytes(4, "big"), raw)
    return b"".join(out)


def require_bytes(buf: bytes, off: int, nbytes: int, what: str) -> None:
    """MalformedMessage unless `buf` holds `nbytes` bytes from `off` on."""
    if off + nbytes > len(buf):
        raise MalformedMessage(f"{what} needs {nbytes} bytes at offset {off}, "
                               f"payload has {len(buf)}")


def unpack_bigints(buf: bytes, off: int = 0, count: int | None = None):
    """Inverse of pack_bigints from offset `off`: (integers, end offset).
    With `count` given there is no count prefix. MalformedMessage where a
    prefix or an integer runs past the payload."""
    if count is None:
        require_bytes(buf, off, 4, "count")
        count, off = int.from_bytes(buf[off:off + 4], "big"), off + 4
    require_bytes(buf, off, 4 * count, f"{count} bigint lengths")
    xs = []
    for _ in range(count):
        ln = int.from_bytes(buf[off:off + 4], "big")
        require_bytes(buf, off + 4, ln, "bigint")
        xs.append(int.from_bytes(buf[off + 4:off + 4 + ln], "big"))
        off += 4 + ln
    return xs, off


def expect_end(buf: bytes, off: int) -> None:
    """MalformedMessage unless the payload ends at `off`."""
    if off != len(buf):
        raise MalformedMessage(f"{len(buf) - off} trailing bytes after offset {off}")


def _check_unit(x: int, pk: PublicKey, what: str) -> None:
    """MalformedMessage unless x is a unit of Z_{N^2}: 0 < x < N^2, gcd(x, N) = 1."""
    if not 0 < x < pk.n_sq or math.gcd(x, pk.n) != 1:
        raise MalformedMessage(f"{what} is not a unit mod N^2")


def public_key_to_bytes(pk: PublicKey) -> bytes:
    """N and h_N as pack_bigints writes them, without the count."""
    return pack_bigints([pk.n, pk.h_n])[4:]


def public_key_from_bytes(buf: bytes) -> PublicKey:
    (n, h_n), off = unpack_bigints(buf, count=2)
    expect_end(buf, off)
    pk = PublicKey(n=n, h_n=h_n)
    _check_unit(h_n, pk, "h_N")
    return pk


def ciphertexts_to_bytes(cs) -> bytes:
    return pack_bigints([c.value for c in cs])


def ciphertexts_from_bytes(buf: bytes, pk: PublicKey) -> list:
    """Inverse of ciphertexts_to_bytes; MalformedMessage unless `buf` holds
    exactly the declared number of ciphertexts, each a unit mod N^2."""
    values, off = unpack_bigints(buf)
    expect_end(buf, off)
    for i, v in enumerate(values):
        _check_unit(v, pk, f"ciphertext {i}")
    return [Ciphertext(value=v, key_id=pk.fingerprint) for v in values]

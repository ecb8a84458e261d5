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
all run through it, in libgmp's constant-time mpn_sec_powm. Every caller
names a public bound on its exponent's bit length, and the time of a call
depends on that bound and the operand sizes alone: the ring width for a
scalar, alpha_bits for an encryption exponent, the bit length of p or q
for CRT decryption, 256 for an OT secret and the modulus size for
Miller-Rabin and the fixed base h_N. ``legendre`` is the base OTs'
subgroup check.

``encrypt_many``, ``decrypt_many`` and ``he_matvec`` (from 1024-bit keys
on) split a batch between the calling thread and a module-level thread
pool with one worker fewer than the process's usable CPUs (none on one
CPU); the ctypes call into libgmp releases the GIL, so the chunks run on
separate cores. Each element still goes through the public per-element
function, and every encryption exponent is drawn on the calling thread in
element order, so ciphertexts and rng states do not depend on the number
of CPUs.
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
from functools import cached_property, lru_cache

from .errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    KeyMismatch,
    MalformedMessage,
    PlaintextOutOfRange,
    PrimeGenFailure,
)


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct. Setting `limbs` to a bytes object keeps that
    object alive as long as the struct."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                ("limbs", ctypes.c_char_p)]


def _load_gmp():
    """The system libgmp's mpn_sec_powm, its scratch size mpn_sec_powm_itch
    and mpz_jacobi through ctypes, with the limb size. ImportError, naming
    what is wrong, where the library is not found or cannot be loaded or a
    symbol is missing: no secret exponent may run but in mpn_sec_powm."""
    path = ctypes.util.find_library("gmp")
    if path is None:
        raise ImportError("blindboost.paillier needs the system libgmp; none was found")
    ptr, size, bitcnt = ctypes.c_char_p, ctypes.c_long, ctypes.c_ulong
    signatures = {  # name: (argument types, return type)
        "mpn_sec_powm": ([ptr, ptr, size, ptr, bitcnt, ptr, size, ptr], None),
        "mpn_sec_powm_itch": ([size, bitcnt, size], size),
        "mpz_jacobi": ([ctypes.POINTER(_Mpz)] * 2, ctypes.c_int),
    }
    try:  # each error names the file, or the file and the missing symbol
        lib = ctypes.CDLL(path)
        limb_bits = ctypes.c_int.in_dll(lib, "__gmp_bits_per_limb").value
        fns = {name: getattr(lib, "__g" + name) for name in signatures}
    except (OSError, ValueError, AttributeError) as exc:
        raise ImportError(f"the libgmp at {path} cannot be used: {exc}") from exc
    for name, (argtypes, restype) in signatures.items():
        fns[name].argtypes, fns[name].restype = argtypes, restype
    return types.SimpleNamespace(limb_bits=limb_bits, **fns)


_gmp = _load_gmp()


def _limbs(x: int, count: int, limb_bits: int) -> bytes:
    """`count` limbs of x >= 0, least significant first."""
    return x.to_bytes(count * limb_bits // 8, "little")


@lru_cache(maxsize=64)
def _scratch_bytes(n: int, enb: int) -> int:
    """Bytes of scratch mpn_sec_powm needs for an n-limb base and modulus
    and an enb-bit exponent; a run uses a handful of (n, enb) pairs."""
    return _gmp.mpn_sec_powm_itch(n, enb, n) * _gmp.limb_bits // 8


def powmod(base: int, exp: int, mod: int, bits: int) -> int:
    """base**exp mod mod, equal to builtin pow, for an exponent below 2^bits.

    `bits` is a public bound on the exponent, which the caller names and
    which is never read off the exponent itself. libgmp is required: its
    mpn_sec_powm takes time that depends on the operand sizes and on `bits`
    alone, and runs through ctypes, which releases the GIL for the call, so
    two party threads exponentiate in parallel. A zero exponent goes
    through it like any other. ExponentOutOfRange where exp >= 2^bits, on
    every path. Builtin pow takes only what mpn_sec_powm cannot: exp < 0,
    an even modulus, mod < 3 and a base divisible by the modulus.
    """
    if exp >> bits > 0:
        raise ExponentOutOfRange(f"exponent is not below its {bits}-bit bound")
    if exp < 0 or not mod & 1 or mod < 3 or not base % mod:
        return pow(base, exp, mod)
    limb_bits, enb = _gmp.limb_bits, max(bits, 1)
    n = -(-mod.bit_length() // limb_bits)
    out = ctypes.create_string_buffer(n * limb_bits // 8)
    _gmp.mpn_sec_powm(out, _limbs(base % mod, n, limb_bits), n,
                      _limbs(exp, -(-enb // limb_bits), limb_bits), enb,
                      _limbs(mod, n, limb_bits), n,
                      ctypes.create_string_buffer(_scratch_bytes(n, enb)))
    return int.from_bytes(out.raw, "little")


def legendre(x: int, p: int) -> int:
    """The Legendre symbol (x | p) of an odd prime p: 1, -1 or 0.

    Runs GMP's mpz_jacobi, which is not constant time: for public x only.
    Its operands are read-only GMP integers over Python-owned limbs, as
    GMP's MPZ_ROINIT_N builds them. libgmp is required, as for powmod.
    """
    def read_only(v):
        count = -(-v.bit_length() // _gmp.limb_bits)
        return _Mpz(0, count, _limbs(v, count, _gmp.limb_bits))

    return _gmp.mpz_jacobi(read_only(x % p), read_only(p))


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
        x = powmod(a, d, n, n.bit_length())
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
    a_p = powmod(h, n % (p * (p - 1)), pp, pp.bit_length())
    a_q = powmod(h, n % (q * (q - 1)), qq, qq.bit_length())
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
    through powmod's constant-time kernel with that bound.
    """
    m = int(m)
    if not 0 <= m < pk.n:
        raise PlaintextOutOfRange(f"plaintext must be in [0, N), got {m}")
    alpha = rng.getrandbits(pk.alpha_bits)
    c = (1 + m * pk.n) * powmod(pk.h_n, alpha, pk.n_sq, pk.alpha_bits) % pk.n_sq
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
    coprime to N (asserted by the test suite). The secret exponents p - 1
    and q - 1 run under the public bounds bits(p) and bits(q)."""
    if c.key_id != kp.public.fingerprint:
        raise KeyMismatch("ciphertext was produced under a different key")
    sk = kp.secret
    p, q = sk.p, sk.q
    mp = (powmod(c.value, p - 1, p * p, p.bit_length()) - 1) // p * sk.hp % p
    mq = (powmod(c.value, q - 1, q * q, q.bit_length()) - 1) // q * sk.hq % q
    return mq + q * ((mp - mq) * sk.q_inv % p)


def decrypt_many(kp: KeyPair, cs) -> list:
    """[decrypt(kp, c) for c in cs], run by fan_out."""
    return fan_out(lambda c: decrypt(kp, c), cs)


def _decrypt_plain(kp: KeyPair, c: int) -> int:
    """L(c^lam mod N^2) mu mod N; the test oracle for decrypt."""
    n = kp.public.n
    x = powmod(c, kp.secret.lam, n * n, n.bit_length())
    return ((x - 1) // n) * kp.secret.mu % n


def he_add(pk: PublicKey, c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    if c1.key_id != c2.key_id or c1.key_id != pk.fingerprint:
        raise KeyMismatch("operands are under different keys")
    return Ciphertext((c1.value * c2.value) % pk.n_sq, c1.key_id)


def he_scalar_mul(pk: PublicKey, c: Ciphertext, s: int, bits: int | None = None) -> Ciphertext:
    """s * c: c^s mod N^2 for a scalar s in [0, N), which may be secret.

    `bits` is the caller's public bound on s; by default the bit length of
    N, which bounds every scalar in [0, N). The exponentiation takes the
    time of a `bits`-bit exponent whatever s is, 0 included.
    """
    if c.key_id != pk.fingerprint:
        raise KeyMismatch("ciphertext is under a different key")
    s = int(s)
    if not 0 <= s < pk.n:
        raise PlaintextOutOfRange(f"scalar must be in [0, N), got {s}")
    return Ciphertext(powmod(c.value, s, pk.n_sq, pk.key_bits if bits is None else bits),
                      c.key_id)


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


# Below 1024-bit keys a row of short scalar multiplies is too short to
# share: with mpn_sec_powm a 19-bit scalar multiply at 512 bits costs about
# 25 us, 4 of them Python holding the GIL. On a 2-core x86 machine the 11
# rows of 9 of a 512-bit SecSh+GC trial took 3.0-3.8 ms (medians) on the
# calling thread and 3.5-4.3 ms on the pool, with up to 65% more CPU time;
# the pool was faster in 6 of 30 alternating pairs. From 1024 bits on the
# exponentiation dominates.
_ROW_POOL_MIN_BITS = 1024


def map_rows(pk: PublicKey, fn, rows) -> list:
    """[fn(row) for row in rows] for rows of scalar multiplies under pk:
    fan_out from 1024-bit keys on, on the calling thread below that."""
    if pk.n.bit_length() < _ROW_POOL_MIN_BITS:
        return [fn(row) for row in rows]
    return fan_out(fn, rows)


def he_dot(pk: PublicKey, acc: Ciphertext, cts, scalars, bits: int | None = None) -> Ciphertext:
    """acc + sum_j s_j * c_j under pk: one he_scalar_mul and one he_add per
    ciphertext, a zero scalar included, so each ciphertext's key is checked.
    `bits` is he_scalar_mul's public bound on every scalar."""
    for c, s in zip(cts, scalars):
        acc = he_add(pk, acc, he_scalar_mul(pk, c, s, bits))
    return acc


def he_matvec(pk: PublicKey, rows, w, bits: int | None = None) -> list:
    """Component i encrypts sum_j z_ij * w_j over Z_N (ring values, level 2),
    for rows of ciphertexts under pk.

    w entries are plaintext ring representatives in [0, q), below 2^bits
    for he_scalar_mul's public bound `bits` (q = 2^bits for ring bits L).
    The rows run through map_rows.
    """
    w = [int(x) for x in w]
    for row in rows:
        if len(row) != len(w):
            raise DimensionMismatch(f"matrix row has {len(row)} columns, "
                                    f"vector has {len(w)}")
    return map_rows(pk, lambda row: he_dot(pk, encrypt_raw(pk, 0), row, w, bits), rows)


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

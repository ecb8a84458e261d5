import ctypes.util
import functools
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from blindboost import ot, paillier
from blindboost.encoding import (
    Dataset,
    FixedPointParams,
    decode,
    encode,
    encode_array,
    fold_labels,
)
from blindboost.errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    KeyMismatch,
    MalformedMessage,
    PlaintextOutOfRange,
)
from blindboost.protocol import HE_GC, SECSH_GC, ProtocolConfig, Seeds, engine, setup
from blindboost.protocol.config import stream


# ---------------------------------------------------------------------------
# the powmod kernel


def test_the_import_refuses_a_missing_library_or_symbol(monkeypatch):
    # libgmp is required: no secret exponent may fall back to builtin pow
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    with pytest.raises(ImportError, match="needs the system libgmp"):
        paillier._load_gmp()
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: __file__)  # no ELF file
    with pytest.raises(ImportError, match="cannot be used: .*test_paillier"):
        paillier._load_gmp()
    monkeypatch.undo()

    class WithoutSecPowm(ctypes.CDLL):
        def __getattr__(self, name):
            if name == "__gmpn_sec_powm":
                raise AttributeError(name)
            return super().__getattr__(name)

    monkeypatch.setattr(ctypes, "CDLL", WithoutSecPowm)
    with pytest.raises(ImportError, match="cannot be used: __gmpn_sec_powm"):
        paillier._load_gmp()


@pytest.mark.parametrize("bits", [64, 512, 1024, 2048, 4096])
def test_powmod_matches_builtin_pow(bits):
    rng = random.Random(bits)
    for _ in range(4 if bits == 4096 else 12):
        mod = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
        base = rng.getrandbits(bits + 8)
        exp = rng.getrandbits(bits)
        assert paillier.powmod(base, exp, mod, bits) == pow(base, exp, mod)


@pytest.mark.parametrize("mod_bits", [768, 1024, 2048, 3072, 4096])
def test_the_kernel_matches_builtin_pow_over_each_bound(mod_bits):
    # bounds below, at and past a limb edge, with the exponents at both ends
    # of each bound and bases 1, 4 and past the modulus
    rng = random.Random(mod_bits)
    mod = rng.getrandbits(mod_bits) | 1 | (1 << (mod_bits - 1))
    for bits in (1, 17, 24, 64, 65, 256, mod_bits, mod_bits + 64):
        for base in (1, 4, rng.randrange(2, mod), mod + 4, rng.getrandbits(mod_bits + 70)):
            for exp in (0, 1, (1 << bits) - 1, rng.getrandbits(bits)):
                assert paillier.powmod(base, exp, mod, bits) == pow(base, exp, mod), \
                    (bits, base, exp)


@pytest.mark.parametrize("base, exp, mod", [
    (5, 0, 7919),              # exp 0
    (0, 0, 7919),
    (0, 12345, 7919),          # base 0
    (7919 * 3 + 2, 77, 7919),  # base >= mod
    (7919, 77, 7919),
    (-12345, 77, 7919),        # negative base
    (5, 12345, 1),             # mod 1
    (5, 12345, 2**61),         # even mod
    (5, 12345, 6),
    (5, -1, 7919),             # exp -1: modular inverse
    (2**600 + 1, 2**100, 2**521 - 1),
])
def test_powmod_edge_cases(base, exp, mod):
    bits = max(exp.bit_length(), 1)
    assert paillier.powmod(base, exp, mod, bits) == pow(base, exp, mod)


def test_an_exponent_past_its_bound_is_refused(keypair_512):
    # on the kernel's path and on builtin pow's (an even modulus)
    for mod in (2**127 - 1, 2**127):
        for bits in (0, 1, 24, 64, 256):
            assert paillier.powmod(3, (1 << bits) - 1, mod, bits) == pow(3, (1 << bits) - 1, mod)
            for exp in (1 << bits, (1 << bits) + 1, 1 << (bits + 64)):
                with pytest.raises(ExponentOutOfRange):
                    paillier.powmod(3, exp, mod, bits)
    pk = keypair_512.public
    c = paillier.encrypt(pk, 42, random.Random(3))
    with pytest.raises(ExponentOutOfRange):
        paillier.he_scalar_mul(pk, c, 1 << 24, 24)
    with pytest.raises(ExponentOutOfRange):
        paillier.he_matvec(pk, [[c]], [1 << 24], 24)


def test_an_exponent_past_its_bound_never_reaches_the_kernel(kernel_calls):
    with pytest.raises(ExponentOutOfRange):
        paillier.powmod(3, 1 << 64, 2**127 - 1, 64)
    assert kernel_calls == []


def test_gmp_kernel_is_active_where_libgmp_is_installed(kernel_calls):
    assert paillier.powmod(3, 2**64 + 1, 2**127 - 1, 65) == pow(3, 2**64 + 1, 2**127 - 1)
    assert kernel_calls == [(2**127 - 1, 2, 65, 3)]


def test_zero_scalar_runs_the_constant_time_kernel(keypair_512, kernel_calls):
    # a zero secret scalar must cost what any other does: one that skipped
    # the kernel would return at once, and the time of a reply would show
    # which scalars are 0. Scalars 0 and 2^L - 1 make the same call, with
    # the same limb count and exponent bound.
    pk = keypair_512.public
    c = paillier.encrypt(pk, 42, random.Random(3))
    kernel_calls.clear()
    assert paillier.he_scalar_mul(pk, c, 0, 24) == paillier.Ciphertext(1, c.key_id)
    top = paillier.he_scalar_mul(pk, c, (1 << 24) - 1, 24)
    assert top.value == pow(c.value, (1 << 24) - 1, pk.n_sq)
    assert [(m, n, enb) for m, n, enb, _ in kernel_calls] == [(pk.n_sq, 16, 24)] * 2
    kernel_calls.clear()
    paillier.he_scalar_mul(pk, c, 0)  # by default, the [0, N) range
    assert [enb for _, _, enb, _ in kernel_calls] == [pk.key_bits]


def _kernel_calls_of_a_run(calls, construction, ot_mode):
    """The kernel calls of setup (keygen and the users' encryptions) and of
    the run after it, the two parties and the run's config."""
    cfg = ProtocolConfig(construction=construction, tau=1, p_max=2, ot_mode=ot_mode,
                         seeds=Seeds.derive(6))
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(6, 2))
    folded = fold_labels(Dataset((X - X.mean(0)) / X.std(0), np.array([1, -1] * 3, np.int8)))
    calls.clear()
    cloud, csp = setup(cfg, folded)
    at_setup = calls[:]
    calls.clear()
    engine.run_pair(cloud.run, csp.run)
    return at_setup, calls, cloud, csp, cfg


@pytest.mark.parametrize("construction, ot_mode", [(HE_GC, "dealer"), (SECSH_GC, "base")])
def test_every_kernel_call_names_the_public_bound_of_its_exponent(
        kernel_calls, construction, ot_mode):
    at_setup, in_run, cloud, csp, cfg = _kernel_calls_of_a_run(kernel_calls, construction,
                                                               ot_mode)
    kp = csp.keypair if construction == HE_GC else cloud.keypair
    pk, sk = kp.public, kp.secret
    group = ot.GROUPS[cfg.ot_group]

    def kind(m, enb, base):
        if m == pk.n_sq:
            return "encryption" if base == pk.h_n else "scalar multiply"
        if m in (sk.p ** 2, sk.q ** 2) and enb != m.bit_length():
            return "decryption"
        if m == group.p:
            return "base OT"
        # keygen: Miller-Rabin on a candidate, h^N mod p^2 and mod q^2
        return "fixed base" if m in (sk.p ** 2, sk.q ** 2) else "Miller-Rabin"

    bound = {"encryption": pk.alpha_bits, "scalar multiply": cloud.fp.ring_bits,
             "base OT": 256, "decryption": sk.p.bit_length()}
    assert sk.p.bit_length() == sk.q.bit_length() == pk.key_bits // 2
    seen = {"setup": set(), "run": set()}
    for phase, calls in (("setup", at_setup), ("run", in_run)):
        for m, n, enb, base in calls:
            k = kind(m, enb, base)
            assert enb == bound.get(k, m.bit_length()), (phase, k, enb)
            assert n == -(-m.bit_length() // 64)
            seen[phase].add(k)
    encryptions_at_setup = {"encryption"} if construction == HE_GC else set()
    assert seen["setup"] == {"Miller-Rabin", "fixed base"} | encryptions_at_setup
    assert seen["run"] == {"encryption", "scalar multiply", "decryption"} | (
        {"base OT"} if ot_mode == "base" else set())


def test_keygen_runs_miller_rabin_over_the_size_of_each_candidate(kernel_calls):
    kp = paillier.keygen(512, random.Random(0xBB512))
    sk = kp.secret
    squares = [m for m, _, _, _ in kernel_calls if m in (sk.p ** 2, sk.q ** 2)]
    assert sorted(squares) == sorted([sk.p ** 2, sk.q ** 2])
    candidates = {m for m, _, _, _ in kernel_calls} - set(squares)
    assert {sk.p, sk.q} <= candidates and {m.bit_length() for m in candidates} == {256}
    assert all(enb == m.bit_length() for m, _, enb, _ in kernel_calls)


@pytest.mark.parametrize("name", sorted(ot.GROUPS))
def test_legendre_matches_euler_criterion(name):
    group = ot.GROUPS[name]
    p, rng = group.p, random.Random(70)
    residues = [pow(group.g, rng.getrandbits(256), p) for _ in range(8)]
    # p = 3 mod 4, so -1 is a non-residue and -x is one for every residue x
    assert {paillier.legendre(x, p) for x in residues} == {1}
    assert {paillier.legendre(p - x, p) for x in residues} == {-1}
    values = [rng.randrange(p) for _ in range(16)] + [0, 1, 4, p - 1, p, p + 4, 3 * p - 4]
    euler = {1: 1, p - 1: -1, 0: 0}
    assert [paillier.legendre(x, p) for x in values] == \
        [euler[pow(x, (p - 1) // 2, p)] for x in values]


def test_legendre_runs_in_libgmp_where_installed(spy):
    # the base-OT subgroup check on every received element
    calls = spy(paillier._gmp, "mpz_jacobi")
    p = ot.GROUPS["modp-768"].p
    assert (paillier.legendre(4, p), paillier.legendre(p - 4, p)) == (1, -1)
    assert len(calls) == 2


def test_textbook_crt_matches_plain_decrypt_2048():
    kp = paillier.keygen(2048, random.Random(0x2048))
    rng = random.Random(23)
    pk = kp.public
    for m in (0, 1, pk.n - 1, rng.randrange(pk.n), rng.randrange(pk.n)):
        c = paillier.encrypt(pk, m, rng)
        assert paillier.decrypt(kp, c) == paillier._decrypt_plain(kp, c.value) == m


def test_key_constants_are_cached(keypair_512):
    pk, sk = keypair_512.public, keypair_512.secret
    assert pk.n_sq is pk.n_sq and pk.fingerprint is pk.fingerprint
    assert sk.hp is sk.hp and sk.q_inv is sk.q_inv
    assert sk.q_inv * sk.q % sk.p == 1
    # the cached values leave equality, hashing and serialization as they were
    fresh = paillier.PublicKey(n=pk.n, h_n=pk.h_n)
    assert fresh == pk and hash(fresh) == hash(pk)
    assert paillier.public_key_to_bytes(fresh) == paillier.public_key_to_bytes(pk)


# ---------------------------------------------------------------------------
# DJN short-exponent encryption


@functools.lru_cache(maxsize=None)
def _key(bits):
    return paillier.keygen(bits, random.Random(0xD1 + bits))


def test_every_encryption_raises_h_n_to_a_half_length_exponent(monkeypatch, keypair_512):
    pk = keypair_512.public
    calls = []
    powmod = paillier.powmod
    monkeypatch.setattr(paillier, "powmod",
                        lambda *args: calls.append(args) or powmod(*args))
    rng = random.Random(30)
    for i in range(64):
        paillier.encrypt(pk, i, rng)
    assert len(calls) == 64
    assert pk.alpha_bits == 256
    # under the public bound of ceil(k/2) bits, whatever the exponent
    assert all(b == pk.h_n and m == pk.n_sq and bits == pk.alpha_bits
               for b, _, m, bits in calls)
    # at most ceil(k/2) bits, and not shortened: the top bit shows up
    assert max(e.bit_length() for _, e, _, _ in calls) == pk.alpha_bits


@pytest.mark.parametrize("bits", [512, 2048])
def test_crt_fixed_base_matches_pow(monkeypatch, bits):
    seen = []
    base = paillier._djn_base
    monkeypatch.setattr(paillier, "_djn_base",
                        lambda x, p, q: seen.append((x, p, q)) or base(x, p, q))
    pk = paillier.keygen(bits, random.Random(0xD1 + bits)).public
    (x, p, q), = seen
    n = p * q
    assert n == pk.n and pk.h_n == pow(-x * x % n, n, n * n)
    rng = random.Random(bits)
    for _ in range(3):
        x = rng.randrange(2, n)
        assert paillier._djn_base(x, p, q) == pow(-x * x % n, n, n * n)


@pytest.mark.parametrize("bits", [512, 1024, 2048])
def test_fixed_base_is_an_nth_residue(bits):
    kp = _key(bits)
    assert pow(kp.public.h_n, kp.secret.lam, kp.public.n_sq) == 1


@pytest.mark.parametrize("bits", [512, 1024, 2048])
def test_djn_round_trip_boundaries(bits):
    kp = _key(bits)
    assert kp.public.alpha_bits == bits // 2
    rng = random.Random(31)
    for m in (0, 1, kp.public.n - 1):
        c = paillier.encrypt(kp.public, m, rng)
        assert paillier.decrypt(kp, c) == paillier._decrypt_plain(kp, c.value) == m


@pytest.mark.parametrize("bits", [512, 1024, 2048])
def test_key_constants_match_the_paillier_formulas(bits):
    # mu = L(g^lam mod N^2)^-1 mod N and h_p = L_p(g^(p-1) mod p^2)^-1 mod p,
    # h_q likewise, for g = N + 1
    kp = _key(bits)
    n, g, sk = kp.public.n, kp.public.g, kp.secret
    assert g == n + 1
    assert sk.mu == pow((pow(g, sk.lam, n * n) - 1) // n, -1, n)
    assert sk.hp == pow((pow(g, sk.p - 1, sk.p ** 2) - 1) // sk.p, -1, sk.p)
    assert sk.hq == pow((pow(g, sk.q - 1, sk.q ** 2) - 1) // sk.q, -1, sk.q)


def test_keygen_keeps_the_modulus_of_its_seed(keypair_512):
    # x is drawn after p and q, so N is the product of the seed's first two primes
    rng = random.Random(0xBB512)
    p = paillier._random_prime(256, rng)
    q = paillier._random_prime(256, rng)
    assert keypair_512.public.n == p * q


# ---------------------------------------------------------------------------
# primes


_PRIMES_BELOW_2000 = [p for p in range(2, 2000)
                      if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def test_every_prime_below_2000_is_accepted():
    rng = random.Random(40)
    assert len(_PRIMES_BELOW_2000) == 303
    assert all(paillier._is_probable_prime(p, rng) for p in _PRIMES_BELOW_2000)
    assert not any(paillier._is_probable_prime(n, rng) for n in (-7, 0, 1))


def test_the_sieve_rejects_products_of_two_small_primes_without_powmod(monkeypatch):
    calls = []
    powmod = paillier.powmod
    monkeypatch.setattr(paillier, "powmod",
                        lambda b, e, m, bits: calls.append(m) or powmod(b, e, m, bits))
    rng = random.Random(41)
    state = rng.getstate()
    for i, p in enumerate(_PRIMES_BELOW_2000):
        for q in _PRIMES_BELOW_2000[i:]:
            assert not paillier._is_probable_prime(p * q, rng), (p, q)
    assert calls == []
    assert rng.getstate() == state  # the sieve draws nothing


@pytest.mark.parametrize("bits", [256, 1024])
def test_random_primes_have_exact_size_are_3_mod_4_and_pass_40_rounds(bits):
    rng = random.Random(bits)
    check = random.Random(bits + 1)
    for _ in range(4 if bits == 256 else 2):
        p = paillier._random_prime(bits, rng)
        assert p.bit_length() == bits
        assert p % 4 == 3
        assert paillier._is_probable_prime(p, check, rounds=40)


# The three seeded keys of the benchmark's workloads: a change to how
# keygen draws from its rng moves these before any transcript digest.
SEEDED_KEY_FINGERPRINTS = {
    (512, 1): "2691d3d4e128c374",
    (512, 2): "49bfbede3ec50020",
    (2048, 2): "3eb58aab18d39717",
}


@pytest.mark.parametrize("bits, seed", sorted(SEEDED_KEY_FINGERPRINTS))
def test_seeded_keys_known_answer(bits, seed):
    kp = paillier.keygen(bits, stream(seed, b"keyg"))
    assert kp.public.fingerprint.hex() == SEEDED_KEY_FINGERPRINTS[bits, seed]
    assert kp.secret.p % 4 == kp.secret.q % 4 == 3


# ---------------------------------------------------------------------------
# keys and ciphertexts


def test_keygen_exact_bits(keypair_512):
    assert keypair_512.public.n.bit_length() == 512


def test_keygen_deterministic():
    a = paillier.keygen(512, random.Random(1))
    b = paillier.keygen(512, random.Random(1))
    assert a.public.n == b.public.n


def test_distinct_seeds_distinct_moduli():
    a = paillier.keygen(512, random.Random(1))
    b = paillier.keygen(512, random.Random(2))
    assert a.public.n != b.public.n


def test_round_trip_random_messages(keypair_512):
    rng = random.Random(5)
    pk = keypair_512.public
    for _ in range(100):
        m = rng.randrange(pk.n)
        assert paillier.decrypt(keypair_512, paillier.encrypt(pk, m, rng)) == m


def test_round_trip_boundaries(keypair_512):
    rng = random.Random(6)
    pk = keypair_512.public
    for m in (0, 1, pk.n - 1):
        assert paillier.decrypt(keypair_512, paillier.encrypt(pk, m, rng)) == m


def test_encrypt_is_probabilistic(keypair_512):
    rng = random.Random(7)
    pk = keypair_512.public
    c1 = paillier.encrypt(pk, 5, rng)
    c2 = paillier.encrypt(pk, 5, rng)
    assert c1.value != c2.value
    assert paillier.decrypt(keypair_512, c1) == paillier.decrypt(keypair_512, c2) == 5


def test_plaintext_out_of_range(keypair_512):
    rng = random.Random(8)
    with pytest.raises(PlaintextOutOfRange):
        paillier.encrypt(keypair_512.public, keypair_512.public.n, rng)
    with pytest.raises(PlaintextOutOfRange):
        paillier.encrypt(keypair_512.public, -1, rng)


def test_crt_matches_plain_decrypt(keypair_512):
    rng = random.Random(9)
    pk = keypair_512.public
    for _ in range(25):
        c = paillier.encrypt(pk, rng.randrange(pk.n), rng)
        assert paillier.decrypt(keypair_512, c) == paillier._decrypt_plain(keypair_512, c.value)


def test_he_add(keypair_512):
    rng = random.Random(10)
    pk = keypair_512.public
    c = paillier.he_add(pk, paillier.encrypt(pk, 2, rng), paillier.encrypt(pk, 3, rng))
    assert paillier.decrypt(keypair_512, c) == 5


def test_he_scalar_mul(keypair_512):
    rng = random.Random(11)
    pk = keypair_512.public
    c = paillier.he_scalar_mul(pk, paillier.encrypt(pk, 4, rng), 3)
    assert paillier.decrypt(keypair_512, c) == 12


def test_key_mismatch(keypair_512, keypair_512_alt):
    rng = random.Random(12)
    c1 = paillier.encrypt(keypair_512.public, 1, rng)
    c2 = paillier.encrypt(keypair_512_alt.public, 1, rng)
    with pytest.raises(KeyMismatch):
        paillier.he_add(keypair_512.public, c1, c2)
    with pytest.raises(KeyMismatch):
        paillier.decrypt(keypair_512_alt, c1)


def test_homomorphism_property_suite(keypair_512):
    rng = random.Random(13)
    pk = keypair_512.public
    for _ in range(1000):
        m1 = rng.randrange(pk.n // 2)
        m2 = rng.randrange(pk.n // 2)
        c = paillier.he_add(pk, paillier.encrypt(pk, m1, rng),
                            paillier.encrypt(pk, m2, rng))
        assert paillier.decrypt(keypair_512, c) == m1 + m2


def test_scalar_law_property_suite(keypair_512):
    rng = random.Random(14)
    pk = keypair_512.public
    for _ in range(1000):
        m = rng.randrange(pk.n)
        s = rng.randrange(1, 1 << 64)
        c = paillier.he_scalar_mul(pk, paillier.encrypt(pk, m, rng), s)
        assert paillier.decrypt(keypair_512, c) == (m * s) % pk.n


def test_negative_scalar_semantics(keypair_512):
    # (q-1) * E(encode(1.0)) reduced mod q is encode(-1.0)
    rng = random.Random(15)
    pk = keypair_512.public
    p = FixedPointParams(precision_bits=7, ring_bits=24)
    c = paillier.encrypt(pk, encode(1.0, p), rng)
    c = paillier.he_scalar_mul(pk, c, p.q - 1)
    got = paillier.decrypt(keypair_512, c) % p.q
    assert got == encode(-1.0, p)
    assert decode(got, p) == -1.0


def test_mod_q_embedding_products(keypair_512):
    rng = random.Random(16)
    nprng = np.random.default_rng(16)
    pk = keypair_512.public
    p = FixedPointParams(precision_bits=7, ring_bits=20)
    for _ in range(200):
        a, b = nprng.uniform(-2, 2, size=2)
        ca = paillier.encrypt(pk, encode(float(a), p), rng)
        prod = paillier.he_scalar_mul(pk, ca, encode(float(b), p))
        got = decode(paillier.decrypt(keypair_512, prod) % p.q, p, scale_level=2)
        bound = 2.0**-7 * (abs(a) + abs(b) + 2.0**-7)
        assert abs(got - a * b) <= bound + 1e-12


def test_he_matvec_identity_row(keypair_512):
    rng = random.Random(17)
    pk = keypair_512.public
    p = FixedPointParams.for_dimension(2, precision_bits=7)
    zq = [[encode(1.0, p), encode(0.0, p)]]
    ez = paillier.encrypt_matrix(pk, zq, rng)
    out = paillier.he_matvec(pk, ez, [encode(1.0, p), 12345])
    got = paillier.decrypt(keypair_512, out[0]) % p.q
    assert decode(got, p, scale_level=2) == 1.0


def test_he_matvec_matches_plaintext_oracle(keypair_512):
    rng = random.Random(18)
    nprng = np.random.default_rng(18)
    pk = keypair_512.public
    p = FixedPointParams.for_dimension(3, precision_bits=7)
    Z = nprng.uniform(-1, 1, size=(5, 3))  # |dot| <= 3 < level-2 range 4
    w = nprng.uniform(-1, 1, size=3)
    ez = paillier.encrypt_matrix(pk, encode_array(Z, p), rng)
    out = paillier.he_matvec(pk, ez, [int(v) for v in encode_array(w, p)])
    plain = Z @ w
    for i in range(5):
        got = decode(paillier.decrypt(keypair_512, out[i]) % p.q, p, scale_level=2)
        assert abs(got - plain[i]) <= 3 * 2.0**-7


def test_he_matvec_zero_vector(keypair_512):
    rng = random.Random(19)
    pk = keypair_512.public
    p = FixedPointParams.for_dimension(2, precision_bits=7)
    ez = paillier.encrypt_matrix(pk, [[5, 9], [1, 2]], rng)
    out = paillier.he_matvec(pk, ez, [0, 0])
    assert all(paillier.decrypt(keypair_512, c) == 0 for c in out)


def test_he_dot_adds_weighted_ciphertexts_and_multiplies_zero_scalars(keypair_512,
                                                                      monkeypatch):
    pk = keypair_512.public
    rng = random.Random(31)
    cts = paillier.encrypt_many(pk, [3, 5, 7], rng)
    acc = paillier.encrypt(pk, 11, rng)
    scalars, mul = [], paillier.he_scalar_mul
    monkeypatch.setattr(paillier, "he_scalar_mul",
                        lambda pk, c, s, bits: scalars.append((s, bits)) or mul(pk, c, s, bits))
    out = paillier.he_dot(pk, acc, cts, [2, 0, 4], 3)
    assert paillier.decrypt(keypair_512, out) == 11 + 2 * 3 + 4 * 7
    assert scalars == [(2, 3), (0, 3), (4, 3)]
    scalars.clear()
    out = paillier.he_dot(pk, acc, cts, [2, 0, 4])
    assert paillier.decrypt(keypair_512, out) == 11 + 2 * 3 + 4 * 7
    assert scalars == [(2, None), (0, None), (4, None)]


def test_he_matvec_dimension_mismatch(keypair_512):
    rng = random.Random(20)
    ez = paillier.encrypt_matrix(keypair_512.public, [[1, 2], [3]], rng)
    with pytest.raises(DimensionMismatch):
        paillier.he_matvec(keypair_512.public, ez[:1], [1])
    with pytest.raises(DimensionMismatch):
        paillier.he_matvec(keypair_512.public, ez, [1, 2])


def test_he_matvec_refuses_a_foreign_ciphertext_at_a_zero_coefficient(
        keypair_512, keypair_512_alt):
    # every ciphertext carries its key: a row that mixes in one under
    # another key is refused even where its coefficient is 0
    rng = random.Random(21)
    pk = keypair_512.public
    row = [paillier.encrypt(pk, 3, rng), paillier.encrypt(keypair_512_alt.public, 4, rng)]
    with pytest.raises(KeyMismatch):
        paillier.he_matvec(pk, [row], [5, 0])


# ---------------------------------------------------------------------------
# slot packing


@pytest.mark.parametrize("extra", [0, 1])
def test_slot_packing_at_the_slot_bound(keypair_512, extra):
    # every slot holds 2^w - 1; n = slots fills one plaintext exactly, n =
    # slots + 1 spills one value into a second
    pk, width = keypair_512.public, 58
    slots = paillier.slot_count(pk, width)
    assert slots == 511 // width == 8
    values = [(1 << width) - 1] * (slots + extra)
    packed = paillier.pack_slots(values, width, slots)
    assert len(packed) == 1 + extra
    assert all(p < pk.n for p in packed)
    assert packed[0] == (1 << width * slots) - 1
    assert paillier.unpack_slots(packed, width, slots, len(values)) == values
    # every value shifted into its slot stays below N, and the per-chunk sum
    # of the E(x_i * 2^shift_i) decrypts to the plaintext packing
    shifted = [v << s for v, s in zip(values, paillier.slot_shifts(len(values), width,
                                                                    slots))]
    assert all(v < pk.n for v in shifted)
    cts = paillier.encrypt_many(pk, shifted, random.Random(30))
    folded = [functools.reduce(lambda a, b: paillier.he_add(pk, a, b), cts[i:i + slots])
              for i in range(0, len(cts), slots)]
    assert paillier.decrypt_many(keypair_512, folded) == packed


def test_slot_packing_keeps_order_and_zeros(keypair_512):
    rng = random.Random(31)
    width, slots = 42, paillier.slot_count(keypair_512.public, 42)
    for count in (1, slots - 1, slots, 2 * slots + 3):
        values = [rng.getrandbits(width) if i % 3 else 0 for i in range(count)]
        packed = paillier.pack_slots(values, width, slots)
        assert paillier.unpack_slots(packed, width, slots, count) == values


def test_slot_count_keeps_a_packed_plaintext_below_n(keypair_512):
    pk = keypair_512.public
    for width in (1, 42, 57, 58, 255, 511):
        assert paillier.slot_count(pk, width) * width < pk.key_bits
    with pytest.raises(PlaintextOutOfRange):
        paillier.slot_count(pk, 512)


@pytest.mark.parametrize("packed, count", [
    ([0], 9),                    # 9 values take 2 plaintexts of 8 slots
    ([0, 0], 8),                 # 8 values take 1
    ([], 1),
    ([1 << 58 * 3], 3),          # a bit above the last used slot
    ([0, 1 << 58], 9),           # the last plaintext uses 1 slot
    ([1 << 58 * 8], 8),          # above a full plaintext's 8 slots
], ids=["short", "over", "none", "high-bit", "high-bit-last", "high-bit-full"])
def test_unpack_refuses_counts_and_bits_that_do_not_fit(packed, count):
    with pytest.raises(MalformedMessage):
        paillier.unpack_slots(packed, 58, 8, count)


def test_ciphertext_byte_distribution(keypair_512):
    # smoke test: over 1000 encryptions of 0 and 1, no byte position is fixed
    rng = random.Random(21)
    pk = keypair_512.public
    width = (pk.n_sq.bit_length() + 7) // 8
    for m in (0, 1):
        seen = [set() for _ in range(width)]
        for _ in range(1000):
            raw = paillier.encrypt(pk, m, rng).value.to_bytes(width, "big")
            for i, byte in enumerate(raw):
                seen[i].add(byte)
        fixed = sum(1 for s in seen if len(s) == 1)
        assert fixed == 0


def test_serialization_round_trip(keypair_512):
    rng = random.Random(22)
    pk = keypair_512.public
    assert paillier.public_key_from_bytes(paillier.public_key_to_bytes(pk)) == pk
    cs = [paillier.encrypt(pk, i, rng) for i in range(5)]
    blob = paillier.ciphertexts_to_bytes(cs)
    back = paillier.ciphertexts_from_bytes(blob, pk)
    assert [c.value for c in back] == [c.value for c in cs]


def test_public_key_bytes_carry_only_n_and_the_fixed_base(keypair_512):
    pk = keypair_512.public
    assert (pk.g, pk.key_bits) == (pk.n + 1, 512)  # both follow from N
    assert paillier.public_key_to_bytes(pk) == paillier.pack_bigints([pk.n, pk.h_n])[4:]


def test_declared_count_past_the_payload_is_malformed(keypair_512):
    with pytest.raises(MalformedMessage):
        paillier.ciphertexts_from_bytes(b"\x00\x00\x00\x05", keypair_512.public)


def test_truncated_ciphertext_value_is_malformed(keypair_512):
    pk = keypair_512.public
    blob = paillier.ciphertexts_to_bytes([paillier.encrypt(pk, 7, random.Random(23))])
    with pytest.raises(MalformedMessage):
        paillier.ciphertexts_from_bytes(blob[:-30], pk)


def test_every_proper_prefix_of_ciphertexts_is_malformed(keypair_512):
    pk = keypair_512.public
    rng = random.Random(24)
    blob = paillier.ciphertexts_to_bytes([paillier.encrypt(pk, m, rng) for m in (0, 1, 2)])
    for cut in range(len(blob)):
        with pytest.raises(MalformedMessage):
            paillier.ciphertexts_from_bytes(blob[:cut], pk)
    assert len(paillier.ciphertexts_from_bytes(blob, pk)) == 3


def test_trailing_bytes_are_malformed(keypair_512):
    pk = keypair_512.public
    blob = paillier.ciphertexts_to_bytes([paillier.encrypt(pk, 1, random.Random(25))])
    with pytest.raises(MalformedMessage):
        paillier.ciphertexts_from_bytes(blob + b"\x00", pk)
    key_blob = paillier.public_key_to_bytes(pk)
    with pytest.raises(MalformedMessage):
        paillier.public_key_from_bytes(key_blob + b"\x00")
    for cut in range(len(key_blob)):
        with pytest.raises(MalformedMessage):
            paillier.public_key_from_bytes(key_blob[:cut])


def _non_units(kp):
    pk = kp.public
    return [0, pk.n_sq, pk.n_sq + 1, 3 * kp.secret.p]  # 0, N^2, past N^2, a multiple of p


def test_ciphertexts_outside_the_unit_group_are_malformed(keypair_512):
    pk = keypair_512.public
    good = paillier.encrypt(pk, 5, random.Random(26))
    for v in _non_units(keypair_512):
        blob = paillier.ciphertexts_to_bytes([good, paillier.Ciphertext(v, pk.fingerprint)])
        with pytest.raises(MalformedMessage):
            paillier.ciphertexts_from_bytes(blob, pk)


def test_public_key_with_a_non_unit_fixed_base_is_malformed(keypair_512):
    pk = keypair_512.public
    for v in _non_units(keypair_512):
        bad = paillier.PublicKey(n=pk.n, h_n=v)
        with pytest.raises(MalformedMessage):
            paillier.public_key_from_bytes(paillier.public_key_to_bytes(bad))


# ---------------------------------------------------------------------------
# batches over the calling thread and the pool


def _use_pool(monkeypatch, workers):
    pool = ThreadPoolExecutor(workers, initializer=paillier._mark_worker)
    monkeypatch.setattr(paillier, "_pool", pool)
    monkeypatch.setattr(paillier, "_workers", workers)
    return pool


def _batch_outputs(kp, seed):
    pk = kp.public
    rng = random.Random(seed)
    ms = [0, 1, pk.n - 1] + [rng.randrange(pk.n) for _ in range(4)]
    cs = paillier.encrypt_many(pk, ms, rng)
    ez = paillier.encrypt_matrix(pk, [[5, 9, 0], [1, 2, 3]], rng)
    prods = paillier.he_matvec(pk, ez, [7, 0, (1 << 24) - 1])
    return ([c.value for c in cs], [c.value for c in ez[0] + ez[1]],
            [c.value for c in prods], paillier.decrypt_many(kp, cs), rng.getstate())


@pytest.mark.parametrize("bits", [512, 2048])
def test_batches_equal_their_per_element_results(bits):
    kp = _key(bits)
    pk = kp.public
    a, b = random.Random(bits + 1), random.Random(bits + 1)
    ms = [0, 1, pk.n - 1] + [a.randrange(pk.n) for _ in range(6)]
    b.setstate(a.getstate())
    cs = paillier.encrypt_many(pk, ms, a)
    assert cs == [paillier.encrypt(pk, m, b) for m in ms]
    assert a.getstate() == b.getstate()
    assert paillier.decrypt_many(kp, cs) == [paillier.decrypt(kp, c) for c in cs] == ms
    zm = [[1, 2, 3], [4, 0, 6], [7, 8, 9]]
    ez = paillier.encrypt_matrix(pk, zm, a)
    assert ez == [[paillier.encrypt(pk, m, b) for m in row] for row in zm]
    assert a.getstate() == b.getstate()
    w = [3, 0, (1 << 24) - 1]
    expect = []
    for row in ez:
        acc = paillier.encrypt_raw(pk, 0)
        for c, s in zip(row, w):
            if s:
                acc = paillier.he_add(pk, acc, paillier.he_scalar_mul(pk, c, s))
        expect.append(acc)
    assert paillier.he_matvec(pk, ez, w) == expect


def test_batches_are_the_same_without_the_pool(monkeypatch, keypair_512, one_worker_pool):
    pooled = _batch_outputs(keypair_512, 40)
    monkeypatch.setattr(paillier, "_pool", None)
    assert _batch_outputs(keypair_512, 40) == pooled


def test_errors_in_a_workers_chunk_keep_their_type(spy, keypair_512, keypair_512_alt,
                                                   one_worker_pool):
    pk = keypair_512.public
    main = threading.current_thread()
    rng = random.Random(42)
    cs = [paillier.encrypt(pk, m, rng) for m in (1, 2, 3)]
    foreign = paillier.encrypt(keypair_512_alt.public, 4, rng)
    calls = spy(paillier, "encrypt")
    with pytest.raises(PlaintextOutOfRange):
        paillier.encrypt_many(pk, [1, 2, 3, pk.n], random.Random(41))
    assert [t is main for t, args in calls if args[1] == pk.n] == [False]
    calls = spy(paillier, "decrypt")
    with pytest.raises(KeyMismatch):
        paillier.decrypt_many(keypair_512, cs + [foreign])
    assert [t is main for t, args in calls if args[1] is foreign] == [False]


@pytest.mark.parametrize("bits", [512, 2048])
def test_batches_call_the_public_functions_once_per_element(spy, bits, one_worker_pool):
    kp = _key(bits)
    pk = kp.public
    spies = {name: spy(paillier, name)
             for name in ("encrypt", "decrypt", "he_scalar_mul")}
    cs = paillier.encrypt_many(pk, range(6), random.Random(46))
    paillier.decrypt_many(kp, cs)
    paillier.he_matvec(pk, [cs[:3], cs[3:]], [1, 2, 3])
    assert {name: len(calls) for name, calls in spies.items()} == {
        "encrypt": 6, "decrypt": 6, "he_scalar_mul": 6}
    threads = {name: len({t for t, _ in calls}) for name, calls in spies.items()}
    # rows of scalar multiplies stay on the calling thread below 1024 bits
    assert threads == {"encrypt": 2, "decrypt": 2, "he_scalar_mul": 1 if bits < 1024 else 2}


def test_a_batch_started_in_a_worker_runs_inline(monkeypatch, spy, keypair_512):
    # two workers, one of them idle: a batch that did not run inline would
    # show up on the idle one instead of deadlocking
    pool = _use_pool(monkeypatch, 2)
    calls = spy(paillier, "encrypt")
    try:
        worker, cs = pool.submit(lambda: (threading.current_thread(), paillier.encrypt_many(
            keypair_512.public, range(6), random.Random(47)))).result(timeout=60)
    finally:
        pool.shutdown(cancel_futures=True)
    assert len(cs) == 6 and {t for t, _ in calls} == {worker}


def test_batches_with_more_workers_than_cores_and_fast_switching(monkeypatch, bounded):
    # a fresh key, so the cached key constants are first computed inside
    # the batch, by whichever threads get there
    kp = paillier.keygen(512, random.Random(44))
    pool = _use_pool(monkeypatch, 2 * paillier._usable_cpus() + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ms = list(range(40))
        cs = bounded(lambda: paillier.encrypt_many(kp.public, ms, random.Random(45)), 60)
        assert bounded(lambda: paillier.decrypt_many(kp, cs), 60) == ms
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    rng = random.Random(45)
    assert cs == [paillier.encrypt(kp.public, m, rng) for m in ms]


@pytest.mark.skipif(paillier._usable_cpus() < 2, reason="needs two usable CPUs")
def test_a_batch_uses_a_second_thread(spy, keypair_512):
    calls = spy(paillier, "powmod")
    paillier.encrypt_many(keypair_512.public, range(8), random.Random(43))
    assert len({t for t, _ in calls}) >= 2

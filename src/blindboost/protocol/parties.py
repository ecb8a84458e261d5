"""Cloud and CSP state machines.

Knowledge separation is structural: CloudParty has no field for sample
weights, model weights or any decrypted matrix-vector result; CSPParty has no
field for a plaintext classifier or (in HE+GC) for the training data, and
neither keeps a trial's masks or masked values past that trial. The only
cross-party channel is the transport end handed to `open`, `trial` and `run`;
each party's cost counters live on its end (`ch.counters`).

GC roles are fixed for both constructions and for stump selection: CSP
garbles and feeds the minuend wires `inputs_a`, Cloud evaluates, feeds the
subtrahend wires `inputs_b` and returns the output labels, CSP decodes
msb((a - b - v) mod 2^L) for each public constant v of the sign circuit.
The boosting protocols' only constant is 0; stump selection's are the
encodings of its s thresholds, which each party derives itself and hands
to its own opening, so one round compares a feature with every threshold.
In HE+GC and stump selection CSP feeds the masked value and Cloud its mask;
in SecSh+GC CSP feeds -lambda and Cloud -u0 (mod 2^L), and
(-lambda) - (-u0) = Z w. These parties and confidential stump selection
share one SETUP opening per side (`open_cloud` / `open_csp`: the header,
the base-OT session, and a `Side` with that party's seeded streams, label
OT and own sign circuit), one garbled-circuit round (`garbler_round` /
`evaluator_round`) and one packed sign round (`packed_sign_cloud` /
`packed_sign_csp`).

The packed reveal: each user encrypts its values already shifted into its
record's slot, so Cloud folds its encrypted columns, a chunk of records per
ciphertext, by adding them (`pack_columns`), and adds one fresh
encryption of the chunk's packed masks (`mask_packed`); the key holder
decrypts ceil(n / slots) ciphertexts and unpacks the masked values
(`unpack_masked`). A value below 2^b gets a mask of b + sigma bits, and its
slot is b + sigma + 1 bits wide (`reveal_width`). HE+GC's ResultEval packs
u = Z w, with b = `FixedPointParams.product_bits(d)`; Cloud folds its d
encrypted columns once, in SETUP, so a trial's matrix-vector product runs
over ceil(n / slots) rows. Stump selection packs each feature's
x + y * 2^(L-1), with b = L + 1, once per feature. SecSh+GC's BaseApply
reveal stays one ciphertext per record, with masks of the same bound.
"""

import functools
import random

import numpy as np

from .. import paillier, shares
from ..boosting import evaluate_candidate, gen_rlc
from ..circuits import build_sub_msb_batch, record_bits
from ..encoding import FixedPointParams, encode_array
from ..errors import IterationOutOfRange, MalformedMessage, OTFailure
from ..garbling import (
    GarbledCircuit,
    decode_output,
    evaluate,
    garble,
    tables_from_bytes,
)
from ..ot import GROUPS, OTExtReceiver, OTExtSender, dealer_choose
from . import wire
from .config import HE_GC, ProtocolConfig, stream
from .transcript import (
    BASE_APPLY,
    DONE,
    GC_TABLES,
    OT,
    OUTPUT_LABELS,
    RESULT_EVAL_MASK,
    SETUP,
    expect_phase,
)

_DECISION_REJECT = 0
_DECISION_ACCEPT = 1


def _setup_header(n: int, dim: int, ring_bits: int) -> bytes:
    """SETUP's payload: the shape of the data and the ring width, as u32s."""
    return wire.pack_u32(n) + wire.pack_u32(dim) + wire.pack_u32(ring_bits)


def recv_field(ch, phase, unpack):
    """The one field of a `phase` message, read by `unpack`."""
    payload = expect_phase(ch.recv(), phase)
    value, off = unpack(payload)
    wire.expect_end(payload, off)
    return value


def reveal_width(value_bits: int) -> int:
    """Slot width of a packed reveal of values below 2^value_bits: a value
    plus its mask from shares.sample_masks(., value_bits, .) is below
    2^(value_bits + sigma + 1)."""
    return value_bits + shares.MASK_SECURITY_BITS + 1


def pack_columns(pk, rows, width, counters) -> list:
    """The columns of `rows` (ciphertexts under pk) folded into
    ceil(n / slots) packed rows: packed row r holds, per column, the sum of
    the r-th chunk of records, which the users shifted into their slots
    (engine.encrypt_submissions)."""
    slots = paillier.slot_count(pk, width)
    packed = [[functools.reduce(lambda a, b: paillier.he_add(pk, a, b), column)
               for column in zip(*rows[i:i + slots])]
              for i in range(0, len(rows), slots)]
    counters.he_adds += sum(map(len, rows)) - sum(map(len, packed))
    return packed


def mask_packed(pk, packed_cts, masks, width, rng, counters) -> list:
    """Cloud's half of a packed reveal: each packed ciphertext plus a fresh
    encryption of its chunk's packed masks."""
    packed = paillier.pack_slots(masks, width, paillier.slot_count(pk, width))
    out = [paillier.he_add(pk, c, e)
           for c, e in zip(packed_cts, paillier.encrypt_many(pk, packed, rng))]
    counters.encryptions += len(packed)
    counters.he_adds += len(packed)
    return out


def unpack_masked(kp, cts, count, width, counters, phase) -> list:
    """The key holder's half of a packed reveal: the `count` masked values
    that the `phase` message's ceil(count / slots) ciphertexts carry."""
    slots = paillier.slot_count(kp.public, width)
    packed = decrypt_exact(kp, cts, -(-count // slots), counters, phase)
    return paillier.unpack_slots(packed, width, slots, count)


def decrypt_exact(kp, cts, count, counters, phase) -> list:
    """Decrypt the ciphertexts a `phase` message carries; MalformedMessage
    unless there are exactly `count`."""
    if len(cts) != count:
        raise MalformedMessage(f"{phase} carries {len(cts)} ciphertexts, "
                               f"expected {count}")
    counters.decryptions += count
    return paillier.decrypt_many(kp, cts)


def recv_decrypt(ch, phase, kp, count) -> list:
    """Receive a `phase` message of exactly `count` ciphertexts under `kp`
    and decrypt them."""
    cts = paillier.ciphertexts_from_bytes(expect_phase(ch.recv(), phase), kp.public)
    return decrypt_exact(kp, cts, count, ch.counters, phase)


class LabelOT:
    """One party's end of the evaluator-input OT, for every round of a run.

    In ``base`` mode `open_receiver` / `open_sender` run the IKNP extension
    session once, as SETUP messages, before the first round: the evaluator,
    as base-OT sender of the seed pairs, sends A; the garbler answers with
    its KAPPA choice messages; the evaluator returns the masked seed pairs.
    Every round is then one U message and one reply of masked label pairs.
    ``dealer`` mode opens nothing and sends the label pairs in the clear.
    """

    def __init__(self, cfg: ProtocolConfig, rng: random.Random):
        self.cfg = cfg
        self._rng = rng
        self._session = None

    def open_receiver(self, ch) -> None:
        """Evaluator side of the base-OT session."""
        cfg = self.cfg
        if cfg.ot_mode == "dealer":
            return
        self._session = OTExtReceiver(GROUPS[cfg.ot_group], self._rng)
        ch.send(SETUP, wire.pack_bigints([self._session.setup_message()]))
        bs = recv_field(ch, SETUP, wire.unpack_bigints)
        ch.send(SETUP, wire.pack_label_pairs(self._session.base_respond(bs)))

    def open_sender(self, ch) -> None:
        """Garbler side of the base-OT session."""
        cfg = self.cfg
        if cfg.ot_mode == "dealer":
            return
        elems = recv_field(ch, SETUP, wire.unpack_bigints)
        if len(elems) != 1:
            raise OTFailure(f"expected one base-OT setup element, got {len(elems)}")
        self._session = OTExtSender(GROUPS[cfg.ot_group], self._rng, elems[0])
        ch.send(SETUP, wire.pack_bigints(self._session.base_choose()))
        self._session.base_finish(recv_field(ch, SETUP, wire.unpack_label_pairs))

    def receive(self, ch, bits) -> list:
        """Evaluator side: the labels of `bits`, one per transfer."""
        if self.cfg.ot_mode == "dealer":
            return dealer_choose(recv_field(ch, OT, wire.unpack_label_pairs), bits,
                                 self.cfg.secure_profile)
        ch.send(OT, wire.pack_blob(self._session.choose(bits)))
        return self._session.finish(recv_field(ch, OT, wire.unpack_label_pairs))

    def send(self, ch, pairs) -> None:
        """Garbler side: deliver one label of each pair."""
        if self.cfg.ot_mode == "dealer":
            ch.send(OT, wire.pack_label_pairs(pairs))
            return
        u = recv_field(ch, OT, wire.unpack_blob)
        ch.send(OT, wire.pack_label_pairs(self._session.respond(u, pairs)))


class Side:
    """One party's own state for a run, made in SETUP by `open_cloud` /
    `open_csp`: its seeded streams, its end of the label OT and its sign
    circuit over n records in a ring of ring_bits, which compares each
    record's value with every public constant (`build_sub_msb_batch`)."""

    def __init__(self, cfg: ProtocolConfig, seed: int, ot_tag: bytes, n: int,
                 ring_bits: int, constants):
        self.n = n
        self.ring_bits = ring_bits
        self.mask_rng = stream(seed, b"mask")
        self.enc_rng = stream(seed, b"encr")
        self.garble_rng = stream(seed, b"garb")
        self.label_ot = LabelOT(cfg, stream(seed, ot_tag))
        self.circuit = build_sub_msb_batch(ring_bits, n, constants)


def open_cloud(ch, cfg, n: int, dim: int, ring_bits: int, constants=(0,)) -> Side:
    """Cloud's SETUP: the header declaring n records of `dim` columns in a
    ring of `ring_bits`, then the base-OT session. The sign circuit's
    `constants` are Cloud's own, never sent."""
    ch.send(SETUP, _setup_header(n, dim, ring_bits))
    side = Side(cfg, cfg.seeds.cloud, b"ot_r", n, ring_bits, constants)
    side.label_ot.open_receiver(ch)
    return side


def open_csp(ch, cfg, n: int, dim: int, ring_bits: int, constants=(0,)) -> Side:
    """CSP's SETUP: Cloud's header must declare exactly CSP's own shape and
    ring width, checked before any circuit is built; then the base-OT
    session. The sign circuit's `constants` are CSP's own, never read from
    a message."""
    if expect_phase(ch.recv(), SETUP) != _setup_header(n, dim, ring_bits):
        raise MalformedMessage(f"SETUP does not declare n={n}, dim={dim}, L={ring_bits}")
    side = Side(cfg, cfg.seeds.csp, b"ot_s", n, ring_bits, constants)
    side.label_ot.open_sender(ch)
    return side


def garbler_round(ch, side, values) -> list:
    """CSP's side of one garbled-circuit round; returns the output bits.

    Garbles the sign circuit, sends its tables, the labels of `values` on
    the minuend wires and the output checks (GC_TABLES), hands over the
    label pairs of the subtrahend wires by OT and decodes Cloud's output
    labels.
    """
    circuit, counters = side.circuit, ch.counters
    gc = garble(circuit, side.garble_rng)
    counters.and_gates += circuit.and_count
    ch.send(GC_TABLES, wire.pack_blob(gc.tables_bytes())
            + wire.pack_labels(gc.encode(record_bits(values, side.ring_bits)))
            + wire.pack_label_pairs(gc.output_check))
    pairs, decode = gc.label_pairs(), gc.output_decode
    del gc  # its wire labels and tables are dead weight while Cloud evaluates
    counters.ot_transfers += len(pairs)
    side.label_ot.send(ch, pairs)
    return decode_output(recv_field(ch, OUTPUT_LABELS, wire.unpack_labels), decode)


def evaluator_round(ch, side, values) -> None:
    """Cloud's side of one garbled-circuit round.

    Receives the tables, CSP's minuend labels and the output checks,
    obtains the labels of `values` on the subtrahend wires by OT, evaluates
    and returns the output labels (OUTPUT_LABELS) for CSP to decode.
    """
    circuit, counters = side.circuit, ch.counters
    payload = expect_phase(ch.recv(), GC_TABLES)
    tables_blob, off = wire.unpack_blob(payload)
    garbler_labels, off = wire.unpack_labels(payload, off)
    if len(garbler_labels) != len(circuit.inputs_a):
        raise MalformedMessage(f"GC_TABLES carries {len(garbler_labels)} garbler "
                               f"labels for {len(circuit.inputs_a)} wires")
    checks, off = wire.unpack_label_pairs(payload, off)
    wire.expect_end(payload, off)
    gc = GarbledCircuit(circuit=circuit, and_tables=tables_from_bytes(circuit, tables_blob),
                        output_check=checks)
    bits = record_bits(values, side.ring_bits)
    counters.ot_transfers += len(bits)
    out_labels = evaluate(gc, garbler_labels, side.label_ot.receive(ch, bits))
    counters.and_gates += circuit.and_count
    ch.send(OUTPUT_LABELS, wire.pack_labels(out_labels))


def packed_sign_cloud(ch, side, pk, packed_cts, value_bits) -> None:
    """Cloud's packed sign round over values below 2^value_bits that
    `packed_cts` carry: masks them with lambda (RESULT_EVAL_MASK) and
    evaluates on lambda, so CSP learns msb((value - v) mod 2^L) for each of
    the sign circuit's constants v."""
    lam = shares.sample_masks(side.n, value_bits, side.mask_rng)
    masked = mask_packed(pk, packed_cts, lam, reveal_width(value_bits), side.enc_rng,
                         ch.counters)
    ch.send(RESULT_EVAL_MASK, paillier.ciphertexts_to_bytes(masked))
    evaluator_round(ch, side, lam)


def packed_sign_csp(ch, side, kp, value_bits) -> list:
    """CSP's packed sign round: unpacks RESULT_EVAL_MASK's masked values,
    garbles on them and returns the circuit's output bits, constant-major
    (bit r * n + i is constant r on record i)."""
    cts = paillier.ciphertexts_from_bytes(expect_phase(ch.recv(), RESULT_EVAL_MASK),
                                          kp.public)
    masked = unpack_masked(kp, cts, side.n, reveal_width(value_bits), ch.counters,
                           RESULT_EVAL_MASK)
    return garbler_round(ch, side, masked)


class CloudParty:
    """Holds the protected data and the classifier pool; learns only the
    acceptance bitmap."""

    def __init__(self, cfg: ProtocolConfig, fp: FixedPointParams, n: int, dim: int,
                 enc_data=None, csp_public=None, own_keypair=None, z0=None):
        self.cfg = cfg
        self.fp = fp
        self.n = n
        self.dim = dim
        self._value_bits = fp.product_bits(dim)  # bound of the revealed u or Z1 w
        # HE+GC holdings
        self.enc_data = enc_data          # rows of ciphertexts under CSP's key
        self.csp_public = csp_public
        self.packed_data = None           # enc_data's columns, folded in SETUP
        # SecSh+GC holdings
        self.keypair = own_keypair        # Cloud's own AHE keys
        self.z0 = z0                      # uint64 share matrix
        self.pool_rng = np.random.default_rng(cfg.seeds.cloud)
        self.side = None                  # this party's Side, opened in SETUP
        self.tried_w = []                 # plaintext RLCs, in trial order
        self.acceptance = []              # per-trial accept bit (CSP's verdict)

    def open(self, ch):
        """SETUP (`open_cloud`); in HE+GC Cloud then folds its encrypted
        columns for the packed ResultEval reveal."""
        self.side = open_cloud(ch, self.cfg, self.n, self.dim, self.fp.ring_bits)
        if self.cfg.construction == HE_GC:
            self.packed_data = pack_columns(self.csp_public, self.enc_data,
                                            reveal_width(self._value_bits), ch.counters)

    def trial(self, ch, t: int) -> bool:
        """Trial t on a fresh RLC w: BaseApply, ResultEval, then CSP's
        decision; returns whether CSP stops the run.

        HE+GC: E(u) = E(Z) w over the packed columns, then the packed sign
        round. SecSh+GC: E(w) to CSP, which answers Z1 w + lambda under
        Cloud's key; Cloud's u0 = Z0 w + Z1 w + lambda, and the GC round
        gives CSP msb(u0 - lambda) = msb(Z w)."""
        if t > self.cfg.p_max:
            raise IterationOutOfRange(f"iteration {t} exceeds p_max {self.cfg.p_max}")
        w = gen_rlc(self.dim - 1, self.pool_rng)
        self.tried_w.append(w)
        wq = [int(v) for v in encode_array(w, self.fp)]
        if self.cfg.construction == HE_GC:
            eu = paillier.he_matvec(self.csp_public, self.packed_data, wq)
            ch.counters.he_scalar_muls += len(eu) * self.dim
            ch.counters.he_adds += len(eu) * self.dim
            ch.send(BASE_APPLY, wire.pack_u32(t))
            packed_sign_cloud(ch, self.side, self.csp_public, eu, self._value_bits)
        else:
            ew = paillier.encrypt_many(self.keypair.public, wq, self.side.enc_rng)
            ch.counters.encryptions += self.dim
            ch.send(BASE_APPLY, wire.pack_u32(t) + paillier.ciphertexts_to_bytes(ew))
            dec = recv_decrypt(ch, BASE_APPLY, self.keypair, self.n)
            u0 = shares.masked_matvec_cloud_step(self.z0, wq, dec, self.fp)
            ch.send(RESULT_EVAL_MASK, wire.pack_u32(t))
            evaluator_round(ch, self.side, [-u % self.fp.q for u in u0])
        return self.recv_decision(ch)[1]

    def recv_decision(self, ch):
        payload = expect_phase(ch.recv(), OUTPUT_LABELS)
        if len(payload) != 2 or not set(payload) <= {0, 1}:
            raise MalformedMessage(f"decision must be two bytes, each 0 or 1, "
                                   f"got {payload.hex() or 'nothing'}")
        accept, stop = payload[0], payload[1]
        self.acceptance.append(bool(accept))
        return bool(accept), bool(stop)

    def run(self, ch):
        self.open(ch)
        for t in range(1, self.cfg.p_max + 1):
            if self.trial(ch, t):
                break
        ch.send(DONE, wire.pack_u32(t))


class CSPParty:
    """Key holder (HE+GC) or share holder (SecSh+GC); learns the indicator
    vectors and the model weights, never a plaintext classifier."""

    def __init__(self, cfg: ProtocolConfig, fp: FixedPointParams, n: int, dim: int,
                 keypair=None, cloud_public=None, z1=None):
        self.cfg = cfg
        self.fp = fp
        self.n = n
        self.dim = dim
        self._value_bits = fp.product_bits(dim)  # bound of the revealed u or Z1 w
        self.keypair = keypair            # HE+GC: CSP owns the AHE keys
        self.cloud_public = cloud_public  # SecSh+GC: Cloud's public key
        self.z1 = z1                      # SecSh+GC share
        self.side = None                  # this party's Side, opened in SETUP
        self.delta = np.full(n, 1.0 / n)
        self.accepted = []                # (trial index, alpha, flipped)
        self.indicator_history = []       # I_t per tried classifier

    def open(self, ch):
        """SETUP (`open_csp`)."""
        self.side = open_csp(ch, self.cfg, self.n, self.dim, self.fp.ring_bits)

    def trial(self, ch) -> bool:
        """The next trial, which Cloud's BASE_APPLY must name: the indicator
        vector I_t, the Update step on it and the decision sent back;
        returns whether the run stops."""
        t = len(self.indicator_history) + 1
        payload = expect_phase(ch.recv(), BASE_APPLY)
        named, off = wire.unpack_u32(payload)
        if named != t or t > self.cfg.p_max:
            raise MalformedMessage(f"BASE_APPLY names trial {named}, expected {t} "
                                   f"of at most {self.cfg.p_max}")
        if self.cfg.construction == HE_GC:
            wire.expect_end(payload, off)
            msb = packed_sign_csp(ch, self.side, self.keypair, self._value_bits)
        else:
            pk = self.cloud_public
            ew = paillier.ciphertexts_from_bytes(payload[off:], pk)
            lam = shares.sample_masks(self.n, self._value_bits, self.side.mask_rng)
            out = shares.masked_matvec_csp_step(self.z1, ew, lam, pk, self.side.enc_rng)
            ch.counters.encryptions += self.n
            ch.counters.he_scalar_muls += self.n * self.dim
            ch.counters.he_adds += self.n * self.dim
            ch.send(BASE_APPLY, paillier.ciphertexts_to_bytes(out))
            if expect_phase(ch.recv(), RESULT_EVAL_MASK) != wire.pack_u32(t):
                raise MalformedMessage(f"RESULT_EVAL_MASK does not name trial {t}")
            msb = garbler_round(ch, self.side, [-m % self.fp.q for m in lam])
        indicators = (1 - np.asarray(msb, dtype=np.uint8)).astype(np.uint8)
        self.indicator_history.append(indicators)
        step = evaluate_candidate(self.delta, indicators)
        if step.decision != "reject":  # the Update step, on CSP's weights
            self.delta = step.delta
            self.accepted.append((t, step.alpha, step.decision == "accept_flipped"))
        stop = len(self.accepted) >= self.cfg.tau
        ch.send(OUTPUT_LABELS, bytes([_DECISION_REJECT if step.decision == "reject"
                                      else _DECISION_ACCEPT, int(stop)]))
        return stop

    def run(self, ch):
        self.open(ch)
        stop = False
        while not stop and len(self.indicator_history) < self.cfg.p_max:
            stop = self.trial(ch)
        t = len(self.indicator_history)
        if expect_phase(ch.recv(), DONE) != wire.pack_u32(t):
            raise MalformedMessage(f"DONE does not name the last trial, {t}")

"""Message log and instrumented cost counters for protocol runs."""

import re
from dataclasses import dataclass, field

from ..errors import PhaseOrderViolation

SETUP = "SETUP"
BASE_APPLY = "BASE_APPLY"
RESULT_EVAL_MASK = "RESULT_EVAL_MASK"
GC_TABLES = "GC_TABLES"
OT = "OT"
OUTPUT_LABELS = "OUTPUT_LABELS"
DONE = "DONE"

PHASES = (SETUP, BASE_APPLY, RESULT_EVAL_MASK, GC_TABLES, OT, OUTPUT_LABELS, DONE)
PHASE_BYTE = {name: i + 1 for i, name in enumerate(PHASES)}
BYTE_PHASE = {v: k for k, v in PHASE_BYTE.items()}

FRAME_OVERHEAD = 5  # 1 phase byte + 4 length bytes

_PHASE_LETTER = {SETUP: "S", BASE_APPLY: "B", RESULT_EVAL_MASK: "R",
                 GC_TABLES: "G", OT: "O", OUTPUT_LABELS: "L", DONE: "D"}
_ORDER_RE = re.compile(r"^S?(BROGL)*D$")


def expect_phase(msg, phase: str) -> bytes:
    """The payload of a received (phase, payload) message that must belong
    to `phase`; PhaseOrderViolation otherwise."""
    got, payload = msg
    if got != phase:
        raise PhaseOrderViolation(f"expected a {phase} message, got {got}")
    return payload


@dataclass
class Counters:
    encryptions: int = 0
    decryptions: int = 0
    he_adds: int = 0
    he_scalar_muls: int = 0
    and_gates: int = 0
    ot_transfers: int = 0

    def as_dict(self):
        return dict(self.__dict__)


@dataclass
class Transcript:
    messages: list = field(default_factory=list)  # (direction, phase, nbytes)
    counters: dict = field(default_factory=dict)  # party -> Counters
    keep_payloads: bool = False
    payloads: list = field(default_factory=list)

    def record(self, direction: str, phase: str, payload: bytes):
        self.messages.append((direction, phase, len(payload) + FRAME_OVERHEAD))
        if self.keep_payloads:
            self.payloads.append(payload)

    def party(self, name: str) -> Counters:
        if name not in self.counters:
            self.counters[name] = Counters()
        return self.counters[name]

    # --- aggregation -------------------------------------------------------

    def bytes_by_phase(self) -> dict:
        out = {p: 0 for p in PHASES}
        for _, phase, nbytes in self.messages:
            out[phase] += nbytes
        return out

    def total_bytes(self) -> int:
        return sum(n for _, _, n in self.messages)

    def gc_bytes(self) -> int:
        by = self.bytes_by_phase()
        return by[GC_TABLES] + by[OT] + by[OUTPUT_LABELS]

    def phase_sequence(self) -> str:
        """Consecutive duplicates collapsed; used for order validation."""
        letters = []
        for _, phase, _ in self.messages:
            letter = _PHASE_LETTER[phase]
            if not letters or letters[-1] != letter:
                letters.append(letter)
        return "".join(letters)

    def validate_phase_order(self):
        seq = self.phase_sequence()
        if not _ORDER_RE.match(seq):
            raise PhaseOrderViolation(f"phase sequence {seq!r} is out of order")

    def iterations(self) -> int:
        return self.phase_sequence().count("B")

    def flights(self) -> int:
        """The number of maximal runs of consecutive messages in one
        direction: each change of direction is a network round trip's half."""
        directions = [d for d, _, _ in self.messages]
        return sum(1 for i, d in enumerate(directions) if i == 0 or d != directions[i - 1])


def transcript_report(t: Transcript) -> dict:
    """Structured cost summary: per-party counters and bytes by phase."""
    t.validate_phase_order()
    return {
        "iterations": t.iterations(),
        "messages": len(t.messages),
        "flights": t.flights(),
        "total_bytes": t.total_bytes(),
        "gc_bytes": t.gc_bytes(),
        "bytes_by_phase": t.bytes_by_phase(),
        "counters": {party: c.as_dict() for party, c in sorted(t.counters.items())},
    }

"""Exception and warning types shared across the package."""


class BlindBoostError(Exception):
    """Base class for all package errors."""


# --- fixed-point encoding / datasets ---

class EmptyDataset(BlindBoostError):
    pass


class AllColumnsConstant(BlindBoostError):
    pass


class InvalidLabel(BlindBoostError):
    pass


class Overflow(BlindBoostError):
    """Magnitude too large for the signed range of the ring."""


# --- additive homomorphic encryption ---

class PrimeGenFailure(BlindBoostError):
    pass


class PlaintextOutOfRange(BlindBoostError):
    pass


class ExponentOutOfRange(BlindBoostError):
    """An exponent is not below 2^bits for the public bound `bits` it is given with."""


class KeyMismatch(BlindBoostError):
    pass


class DimensionMismatch(BlindBoostError):
    pass


# --- secret sharing ---

class ShapeMismatch(BlindBoostError):
    pass


# --- garbled circuits / oblivious transfer ---

class WidthOutOfRange(BlindBoostError):
    pass


class ConstantOutOfRange(BlindBoostError):
    """A circuit's public constant lies outside [0, 2^width), or none is given."""


class UnknownLabel(BlindBoostError):
    pass


class GroupElementInvalid(BlindBoostError):
    pass


class ModeNotPermittedInSecureProfile(BlindBoostError):
    pass


# --- boosting ---

class InvalidBaseClassifier(BlindBoostError):
    pass


class DegenerateError(BlindBoostError):
    pass


class FoldTooSmall(BlindBoostError):
    pass


class PoolExhaustedWarning(UserWarning):
    """Fewer valid base classifiers than requested; a partial model is returned."""


# --- protocol ---

class ConfigInvalid(BlindBoostError):
    pass


class IterationOutOfRange(BlindBoostError):
    pass


class GCEvaluationFailure(BlindBoostError):
    pass


class OTFailure(BlindBoostError):
    pass


class PartMismatch(BlindBoostError):
    pass


class BinCountInvalid(BlindBoostError):
    pass


class TransportClosed(BlindBoostError):
    pass


class TransportStalled(BlindBoostError):
    """A peer began a frame and stopped sending before its last byte."""


class PhaseOrderViolation(BlindBoostError):
    pass


class MalformedMessage(BlindBoostError):
    """A payload does not match the fields and counts it declares."""


class PartyTimeout(BlindBoostError):
    """A party's thread was still running when the run had to end."""


# --- harness ---

class ParseError(BlindBoostError):
    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        if row is not None:
            message = f"{message} (row {row}, column {column})"
        super().__init__(message)


class NonBinaryLabels(BlindBoostError):
    pass


class InsufficientPairsWarning(UserWarning):
    """A leakage bucket holds fewer pairs than the reliability floor."""

"""Exception hierarchy shared by all modules, and their one count check."""

import numbers


class HdxError(Exception):
    """Base class for all library errors."""


class WitnessedError(HdxError):
    """An error that carries the offending item as its witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BadParameter(HdxError, ValueError):
    """A numeric argument outside the range its function accepts."""


def check_count(name, value):
    """Raise BadParameter unless value is a count: an integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise BadParameter(f"{name} must be an integer >= 1, got {value!r}")


# --- complex construction ---

class NonPure(HdxError):
    """A face has the wrong size for the declared dimension."""


class ZeroMeasure(HdxError):
    """No top face carries positive weight."""


class BadMeasure(HdxError):
    """Top-face weights do not normalize to a probability measure."""


class DuplicateFace(HdxError):
    pass


class NotAFace(HdxError):
    pass


class TopFace(HdxError):
    """The link of a top face is empty."""


class BadLevel(HdxError):
    pass


class TooSmallT(HdxError):
    """Tensor factor smaller than d+1."""


# --- graphs / spectral ---

class EmptyGraph(HdxError):
    pass


class NotBipartite(HdxError):
    pass


class TooLargeForExact(HdxError):
    pass


class NonPositiveAlpha(HdxError):
    pass


class MisScaled(HdxError):
    """A normalized operator's top eigenvalue is not 1, or one leaves [-1, 1]."""


# --- groups ---

class TooLarge(HdxError):
    pass


class NotAGroup(HdxError):
    pass


class NotPure(WitnessedError):
    """A Cayley graph edge lies in no (d+1)-clique; carries the edge."""


class NotSymmetricGenSet(HdxError):
    pass


class NotNormal(HdxError):
    pass


class NotSubgroup(HdxError):
    pass


# --- pruning / combine ---

class BadKindForFace(HdxError):
    pass


class UnsatisfiedBase(HdxError):
    pass


class Unmeasurable(WitnessedError):
    """The labeling misses a pattern required by the reference link."""


# --- covers ---

class BadLabeling(HdxError):
    """A labeling or potential is not one group element per edge or vertex."""


class NotACocycle(WitnessedError):
    """A labeling fails the triangle condition; carries the failing 2-face."""


class Disconnected(HdxError):
    pass


# --- sparsify ---

class EmptySide(HdxError):
    pass


class EmptyResult(HdxError):
    pass


# --- harness ---

class InputError(HdxError):
    """Bad experiment spec or unreadable input file."""

"""Exception types shared across the engine."""

from __future__ import annotations


class RieszkitError(Exception):
    """Base class for all engine errors."""


class SpaceMismatchError(RieszkitError):
    """Two values from different spaces were combined."""


class InvalidIndexError(RieszkitError):
    """An atom index does not belong to the space."""


class StencilError(RieszkitError):
    """A tail rule or a sequence form is structurally invalid: not integral,
    out of range, or two entries that meet at an atom the rule covers."""


class NotDecreasingError(RieszkitError):
    """A claimed decreasing family failed its first comparison.

    Carries the step and a human-readable description of the violated
    comparison so callers can report it.
    """

    def __init__(self, step: int, detail: str):
        super().__init__(f"not decreasing at step {step}: {detail}")
        self.step = step
        self.detail = detail


class PreconditionError(RieszkitError):
    """An operation was called outside its contract (maps to exit code 2)."""


class UnsupportedHypothesisError(RieszkitError):
    """The space pair does not satisfy any applicable hypothesis (exit code 3)."""

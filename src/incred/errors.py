"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: syntax problems (bad JSON, bad
expression text) exit with 2, semantic problems (dimension mismatches,
schema violations, preconditions) exit with 3.
"""

from __future__ import annotations


class IncredError(Exception):
    """Base class for all errors raised by this package."""


class DslSyntaxError(IncredError):
    """Expression text failed to parse. Carries the byte offset."""

    def __init__(self, message: str, offset: int, src: str = ""):
        self.message = message
        self.offset = offset
        self.src = src
        super().__init__(f"{message} (at offset {offset})")


class InputFileError(IncredError, ValueError):
    """An input file is not UTF-8 text or not well-formed JSON."""


class DslEvalError(IncredError):
    """Expression evaluation failed: division by a near-zero denominator,
    an inverted interval literal, exp/sin/cos without a finite value, or a
    NaN set endpoint, baseline derivative or finite-difference estimate."""


class DimensionMismatchError(IncredError):
    """Operands have incompatible dimensions."""


class EmptySetError(IncredError):
    """An operation required a non-empty set value."""


class SchemaError(IncredError):
    """A system definition or operation input violates its contract."""


class SimulationError(IncredError):
    """Trajectory integration could not proceed."""


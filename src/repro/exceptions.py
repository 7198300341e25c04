"""Exception hierarchy for the :mod:`repro` library.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch one base class. Specific subclasses communicate which
layer of the system rejected the input: graph construction, parameter
validation, I/O parsing, or experiment configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class GraphError(ReproError):
    """Invalid operation on a signed graph (unknown node, bad edge, ...)."""


class EdgeSignError(GraphError):
    """An edge sign was not one of the accepted positive/negative forms."""


class SelfLoopError(GraphError):
    """A self-loop was supplied; signed cliques are defined on simple graphs."""


class ParameterError(ReproError):
    """An (alpha, k) or model parameter is outside its valid domain."""


class ParseError(ReproError):
    """A signed edge-list or JSON document could not be parsed."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""

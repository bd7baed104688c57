"""Exception hierarchy shared across the package.

Every error the library raises on purpose is a :class:`GraphNestError`,
or a ``ValueError`` for a malformed argument or representation JSON, so
callers can map failures onto exit codes without catching bare
``Exception``; the CLI's ``EXIT_CODES`` table does so by class.
"""

from __future__ import annotations


class GraphNestError(Exception):
    """Base class for all errors raised by this package."""


class GraphParseError(GraphNestError):
    """A graph text file (or path/element spec) could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PathError(GraphNestError):
    """A path is ill-formed: unknown edge/vertex, or consecutive edges
    that do not compose (target of one is not the source of the next)."""


class LimitError(GraphNestError):
    """A size cap was exceeded (path enumeration length and count, Fock
    basis size, free words, recovery path length, separation grid), or a
    separation witness entry fell below the normal doubles."""


class PreconditionError(GraphNestError):
    """The structural hypothesis of a construction is not satisfied by the
    given graph (e.g. a vertex on a cycle carries no loop, or the graph is
    not strongly transitive)."""


class EmptyInputError(GraphNestError):
    """The input is empty where a nonzero/nonempty object is required
    (zero algebra element, graph with no vertices)."""

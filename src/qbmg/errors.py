"""Exception types shared across the package."""


class QbmgError(Exception):
    """Base class for all errors raised by this library."""


class LoopEdge(QbmgError):
    """An edge joins a vertex to itself."""


class MonochromaticEdge(QbmgError):
    """An edge joins two vertices of the same color."""


class DuplicateEdge(QbmgError):
    """The same edge was given twice."""


class TooLarge(QbmgError):
    """Input exceeds the size bound an exhaustive routine supports."""


class NotQbmg(QbmgError):
    """Operation requires a graph passing recognition."""


class Disconnected(QbmgError):
    """Operation requires a connected graph."""


class NotOriented(QbmgError):
    """Operation requires a digraph without symmetric edge pairs."""


class NotBiclique(QbmgError):
    """The given vertex sets do not span a biclique of the host graph."""


class NotPhylogenetic(QbmgError):
    """A rooted tree has an internal node with fewer than two children."""


class NotSurjective(QbmgError):
    """A leaf coloring does not use both colors."""


class InvalidTruncation(QbmgError):
    """A truncation map entry is off the root-to-leaf path or mislabels the leaf itself."""


class ParseError(QbmgError):
    """Malformed input text; carries a 1-based line and optional column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)

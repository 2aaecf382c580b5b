"""Exception hierarchy.

User-facing input problems derive from ``GraphInputError`` (CLI exit 1).
Every violated internal consistency check raises ``InternalCheckError``
(CLI exit 2), never an ``assert``, so ``python -O`` keeps it; these signal
implementation bugs or a graph outside the theory's hypotheses, never bad
user input.  Its one subclass, ``NegativeH1``, carries the trace the CLI
prints.  ``MonomialConditionUnknown`` (CLI exit 3) means a search hit its
bound without a verdict.
"""


class SpliceGenusError(Exception):
    pass


class GraphInputError(SpliceGenusError):
    """Malformed or invalid input graph."""


class GraphSyntaxError(GraphInputError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotATree(GraphInputError):
    pass


class NotNegativeDefinite(GraphInputError):
    def __init__(self, minor_index):
        self.minor_index = minor_index
        super().__init__(
            f"intersection matrix is not negative definite "
            f"(leading principal minor {minor_index} has wrong sign)"
        )


class CycleOutOfRange(GraphInputError):
    """A cycle or degree list is malformed, not effective, or outside the
    bounds required by the twisted-h1 formula."""


class MonomialConditionUnknown(SpliceGenusError):
    """No admissible monomial was found within the search bound."""


class InternalCheckError(SpliceGenusError):
    pass


class NegativeH1(InternalCheckError):
    """The h1 recursion produced a negative value; carries the trace."""

    def __init__(self, message, trace=None):
        self.trace = trace
        super().__init__(message)

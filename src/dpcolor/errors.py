"""Exception types shared across the package.

Every contract violation raises a distinct class so that library callers
and tests can tell failures apart without string matching.  The CLI does
not: it maps every ``DpColorError`` to exit code 2.
"""


class DpColorError(Exception):
    """Base class for all errors raised by this package."""


class InternalInvariantError(DpColorError):
    """A guarantee the package establishes itself does not hold: a bug,
    not a bad input."""


# --- graph construction ---------------------------------------------------

class LoopEdgeError(DpColorError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(DpColorError):
    """The same unordered edge was given twice."""


class IndexOutOfRangeError(DpColorError):
    """A vertex index is negative or >= the vertex count."""


# --- embeddings -----------------------------------------------------------

class InvalidRotationError(DpColorError):
    """A rotation system is malformed: a ring is not a list of integers or
    not a permutation of its vertex's neighbor set, or the ring count is
    not the vertex count."""


class NonPlanarEmbeddingError(DpColorError):
    """Face tracing finished but the Euler identity |V|-|E|+|F|=2 failed."""


class DisconnectedError(DpColorError):
    """The operation requires a connected graph."""


class ForbiddenCyclePresentError(DpColorError):
    """The graph contains a 4-cycle or a 6-cycle where none is allowed."""


# --- covers and solving ---------------------------------------------------

class UnequalListsError(DpColorError):
    """A perfect matching was requested across lists of different sizes."""


class BudgetExceededError(DpColorError):
    """An exhaustive enumeration would exceed the caller's budget."""


class NotInListError(DpColorError):
    """A chosen color is not in the vertex's list."""


class PartialAssignmentError(DpColorError):
    """An assignment required to be total leaves some vertex unassigned."""


class NegativeImproprietyError(DpColorError):
    """An impropriety bound below 0 was requested; no count can meet it."""


class EmptyListError(DpColorError):
    """Some vertex has an empty color list, so no assignment can exist; or
    a list size below 0 was requested.

    Kept distinct from a plain unsatisfiable answer: the instance is
    degenerate rather than merely uncolorable.
    """


# --- reduction pipeline ---------------------------------------------------

class ContractViolationError(DpColorError):
    """The pipeline's contract failed: an invalid or mismatched input cover,
    an empty residual list, no admissible center color, or a final
    impropriety above 1; or a configuration check got list sizes that do
    not match the configuration's vertices."""


class TheoremViolationError(DpColorError):
    """No reducible configuration exists where one is guaranteed.

    Raised with the host graph attached for inspection and the stuck
    vertices named by host id; seeing this on a connected plane graph
    without 4- or 6-cycles would contradict the structural guarantee the
    pipeline relies on.
    """

    def __init__(self, message, graph=None):
        super().__init__(message)
        self.graph = graph


class ListTooSmallError(DpColorError):
    """A list is below the size it needs: 3 for the coloring pipeline, the
    configuration's floor for a reducibility check."""


# --- generation and I/O ---------------------------------------------------

class GenerationExhaustedError(DpColorError):
    """The instance generator was asked for fewer than one vertex."""


class FileFormatError(DpColorError):
    """An input file does not match its declared format."""

"""Exception hierarchy for effchain.

Every error the package defines derives from EffchainError, so callers
can catch one base class at API boundaries (the CLI does exactly that to
map errors onto exit codes).  Two argument errors are plain ValueError
instead: a search's ``tie_break`` other than "low" or "high", and a
service input to ``link_efficiency`` that is not finite and above 0.
"""


class EffchainError(Exception):
    """Base class for all effchain errors.

    Args:
        message: human readable description.
        line: 1-based line number in an edge-list file, when known.
        pair: the (tail, head) node pair the error refers to, when known.
    """

    def __init__(self, message: str, *, line: int | None = None, pair: tuple[str, str] | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.pair = pair


# --- network construction ---

class EfficiencyOutOfRange(EffchainError):
    """An efficiency value lies outside (0, 1]."""


class SelfLoop(EffchainError):
    """An arc starts and ends at the same node."""


class DuplicateArc(EffchainError):
    """Two arcs declared on the same ordered pair (or two undirected links
    on the same unordered pair)."""


class ConflictingArc(EffchainError):
    """A directed arc and an undirected link declared on the same
    unordered pair."""


class BadLabel(EffchainError):
    """A node label is empty or contains whitespace or commas."""


class UnknownNode(EffchainError):
    """A node label does not exist in the network."""


# --- weight algebra ---

class NonPositiveOutput(EffchainError):
    """Service output not above 0 (NaN included) gives no efficiency in
    (0, 1]."""


class GainNotAllowed(EffchainError):
    """Service output exceeds service input (efficiency > 1)."""


class EmptyChain(EffchainError):
    """A chain efficiency was requested for an empty link list."""


class BadBase(EffchainError):
    """A logarithm base <= 1 was supplied."""


class NegativeLossiness(EffchainError):
    """A lossiness value below 0 or not finite has no corresponding
    efficiency in (0, 1]."""


class WrongArity(EffchainError):
    """The two-link channel accuracy formula got a list of length != 2."""


class CommissionOutOfRange(EffchainError):
    """A commission percentage outside [0, 100)."""


# --- structure preconditions ---

class NotSymmetric(EffchainError):
    """The network contains a directed-only arc, so it is not symmetric."""


class NotConnected(EffchainError):
    """The undirected network does not connect all nodes."""


class SomePairUnreachable(EffchainError):
    """At least one ordered node pair has no chain, so only the trivial
    zero guaranteed level exists."""


# --- file parsing ---

class ParseError(EffchainError):
    """An edge-list line could not be parsed."""

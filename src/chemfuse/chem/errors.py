"""Exception types raised by the SMILES tokenizer, parser and graph tools."""

from ..errors import InputError


class SmilesError(InputError):
    """Base class for all SMILES processing errors."""


class EmptyInput(SmilesError):
    """Raised when an empty string is tokenized or parsed."""


class UnbalancedBracket(SmilesError):
    """Raised when a '[' has no matching ']'."""


class UnclosedRing(SmilesError):
    """Raised when a ring-closure digit is never closed."""


class DanglingBond(SmilesError):
    """Raised when a bond symbol has no atom to attach to."""


class UnknownElement(SmilesError):
    """Raised for element symbols outside the supported set."""


class ValenceOverflow(SmilesError):
    """Raised when explicit bonds exceed the valence table with no override."""


class UnsupportedFeature(SmilesError):
    """Raised for grammar that is recognized but deliberately rejected
    (isotopes, wildcard atoms, quadruple bonds)."""


class SizeLimitExceeded(SmilesError):
    """Raised when an isomorphism check gets a graph over the size limit."""

"""SMILES tokenization, parsing, serialization, and graph utilities."""

from .canon import are_isomorphic, canonical_key, canonical_ranks
from .errors import (
    DanglingBond,
    EmptyInput,
    SizeLimitExceeded,
    SmilesError,
    UnbalancedBracket,
    UnclosedRing,
    UnknownElement,
    UnsupportedFeature,
    ValenceOverflow,
)
from .graph import (
    Atom,
    Bond,
    BondOrder,
    Chirality,
    MolecularGraph,
    Token,
    TokenKind,
    TokenSequence,
)
from .parser import VALENCE_TABLE, parse_smiles
from .tokenizer import tokenize
from .writer import write_smiles

__all__ = [
    "Atom", "Bond", "BondOrder", "Chirality",
    "MolecularGraph", "Token", "TokenKind", "TokenSequence",
    "tokenize", "parse_smiles", "write_smiles",
    "canonical_ranks", "canonical_key", "are_isomorphic",
    "VALENCE_TABLE",
    "SmilesError", "EmptyInput", "UnbalancedBracket", "UnclosedRing",
    "DanglingBond", "UnknownElement", "ValenceOverflow",
    "UnsupportedFeature", "SizeLimitExceeded",
]

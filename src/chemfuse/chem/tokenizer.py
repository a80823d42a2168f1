"""Regex-based SMILES tokenizer.

The pattern mirrors the common cheminformatics tokenization convention:
bracket atoms ``[...]``, two-letter halogens (Cl, Br), two-digit ring
closures (``%nn``) and stereo marks (``@``, ``@@``) are single tokens;
every other printable character is its own token. Tokenization is total:
the concatenation of all token texts always equals the input string.

Organic and aromatic atoms, bond symbols, branches, the dot, stereo marks
and the digits 0-9 take their kind from one fixed table; a token starting
with ``[`` is a bracket atom; only the rest are classified by rule.
"""

from __future__ import annotations

import re

from .errors import (
    EmptyInput,
    SmilesError,
    UnbalancedBracket,
    UnknownElement,
    UnsupportedFeature,
)
from .graph import ATOM_BEARING, Token, TokenKind, TokenSequence

_TOKEN_RE = re.compile(
    r"(\[[^\]]*\]|Br|Cl|@@|%\d{2}|.)", re.DOTALL
)

#: Kind of every token text that has a fixed kind.
_KIND_OF = {
    **dict.fromkeys(("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I",
                     "b", "c", "n", "o", "p", "s"), TokenKind.ATOM),
    **dict.fromkeys("-=#$:/\\", TokenKind.BOND_SYMBOL),
    **dict.fromkeys("()", TokenKind.BRANCH),
    ".": TokenKind.DOT,
    **dict.fromkeys(("@", "@@"), TokenKind.STEREO_MARK),
    **dict.fromkeys("0123456789", TokenKind.RING_DIGIT),
}


def _classify(text: str) -> TokenKind:
    """Kind of a token text outside the fixed table."""
    if text.startswith("["):
        return TokenKind.BRACKET_ATOM
    if text.isdigit() or text.startswith("%"):
        return TokenKind.RING_DIGIT
    return TokenKind.OTHER


def unsupported(token: Token) -> SmilesError:
    """The error for an OTHER token: a letter run is an unknown atom symbol,
    anything else an unsupported character."""
    if token.text.isalpha():
        return UnknownElement(f"unknown atom symbol {token.text!r}")
    return UnsupportedFeature(f"unsupported character {token.text!r}")


def tokenize(smiles: str) -> TokenSequence:
    """Split a SMILES string into tokens with byte spans and atom links.

    Atom indices are assigned to atom-bearing tokens in order of appearance,
    which by construction matches the order atoms receive in the parser.

    Raises:
        EmptyInput: for the empty string.
        UnbalancedBracket: for a '[' with no closing ']'.
    """
    if not smiles:
        raise EmptyInput("cannot tokenize an empty SMILES string")

    tokens: list[Token] = []
    atom_counter = 0
    pos = 0
    kind_of = _KIND_OF.get
    for text in _TOKEN_RE.findall(smiles):
        if text == "[":
            # The bracket-atom alternative failed to match, so this '[' has
            # no closing ']'.
            raise UnbalancedBracket(f"'[' at byte {pos} never closed in {smiles!r}")
        kind = kind_of(text) or _classify(text)
        end = pos + len(text)  # tokens are contiguous
        if kind in ATOM_BEARING:
            tokens.append(Token(text, kind, (pos, end), atom_counter))
            atom_counter += 1
        else:
            tokens.append(Token(text, kind, (pos, end)))
        pos = end
    return TokenSequence(tokens=tuple(tokens), source=smiles)

"""Regex-based SMILES tokenizer.

The pattern mirrors the common cheminformatics tokenization convention:
bracket atoms ``[...]``, two-letter halogens (Cl, Br), two-digit ring
closures (``%nn``) and stereo marks (``@``, ``@@``) are single tokens;
every other printable character is its own token. Tokenization is total:
the concatenation of all token texts always equals the input string.
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
from .graph import Token, TokenKind, TokenSequence

_TOKEN_RE = re.compile(
    r"(\[[^\]]*\]|Br|Cl|@@|%\d{2}|.)", re.DOTALL
)

_ORGANIC_UPPER = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
_AROMATIC_LOWER = {"b", "c", "n", "o", "p", "s"}
_BOND_CHARS = {"-", "=", "#", "$", ":", "/", "\\"}


def _classify(text: str) -> TokenKind:
    if text.startswith("["):
        return TokenKind.BRACKET_ATOM
    if text in _ORGANIC_UPPER or text in _AROMATIC_LOWER:
        return TokenKind.ATOM
    if text.isdigit() or text.startswith("%"):
        return TokenKind.RING_DIGIT
    if text in _BOND_CHARS:
        return TokenKind.BOND_SYMBOL
    if text in ("(", ")"):
        return TokenKind.BRANCH
    if text == ".":
        return TokenKind.DOT
    if text in ("@", "@@"):
        return TokenKind.STEREO_MARK
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
    for match in _TOKEN_RE.finditer(smiles):
        text = match.group(0)
        if text == "[":
            # The bracket-atom alternative failed to match, so this '[' has
            # no closing ']'.
            raise UnbalancedBracket(f"'[' at byte {pos} never closed in {smiles!r}")
        kind = _classify(text)
        atom_index = None
        if kind in (TokenKind.ATOM, TokenKind.BRACKET_ATOM):
            atom_index = atom_counter
            atom_counter += 1
        tokens.append(Token(text=text, kind=kind, char_span=(pos, match.end()),
                            atom_index=atom_index))
        pos = match.end()
    return TokenSequence(tokens=tuple(tokens), source=smiles)

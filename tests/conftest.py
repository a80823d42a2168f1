"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from chemfuse.chem import Atom, Bond, MolecularGraph

from curve_diff import pin_blas_threads

DATA_DIR = Path(__file__).parent / "data"


def pytest_configure(config):
    # Every test runs OpenBLAS on one thread, as the recorded references were.
    pin_blas_threads()


def load_corpus_lines(name: str) -> list[str]:
    lines = []
    for raw in (DATA_DIR / name).read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lines.append(line.split("\t")[0])
    return lines


def permute_graph(graph: MolecularGraph, rng: random.Random) -> MolecularGraph:
    """Rebuild ``graph`` with atom indices randomly relabeled."""
    perm = list(range(graph.m))
    rng.shuffle(perm)
    out = MolecularGraph()
    inverse = [0] * graph.m
    for new_idx, old_idx in enumerate(perm):
        inverse[old_idx] = new_idx
    for old_idx in perm:
        a = graph.atoms[old_idx]
        out.add_atom(Atom(element=a.element, aromatic=a.aromatic,
                          formal_charge=a.formal_charge, explicit_h=a.explicit_h,
                          implicit_h=a.implicit_h, chirality=a.chirality,
                          source_token=a.source_token))
    order = list(range(len(graph.bonds)))
    rng.shuffle(order)
    for bi in order:
        b = graph.bonds[bi]
        out.add_bond(Bond(a=inverse[b.a], b=inverse[b.b], order=b.order))
    out.mark_rings()
    return out


@pytest.fixture(scope="session")
def golden_smiles() -> list[str]:
    return load_corpus_lines("golden_500.smi")


@pytest.fixture(scope="session")
def toy_smiles() -> list[str]:
    return load_corpus_lines("toy_200.smi")

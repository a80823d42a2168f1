"""Masked-sample generation: token-level, fragment-level, and ablations.

Mask counts follow floor-with-min-1: ``max(1, floor(count * ratio))``
positions are drawn uniformly without replacement. Fragment-level masking
picks whole fragments and then one modality by a coin flip, leaving the
other modality intact. Two appendix-style ablations are provided:
conditional masking (token masks in exactly one modality per sample) and
single-modality masking (token masks in both, with the encoder expected to
block cross-modality attention during the prediction pass).

A "sample" is any object with ``token_ids`` (list of vocab ids),
``context_ids`` (per-atom context-class ids), ``graph`` and
``fragment_map`` attributes; the pipeline's MoleculeRecord qualifies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .chem.graph import BondOrder, MolecularGraph, once_per_graph
from .errors import ConfigError, check_at_least
from .features import EmptyCorpus


class Strategy(Enum):
    CMM = "cmm"
    CONDITIONAL = "conditional"
    SINGLE_MODALITY = "single"


class Modality(Enum):
    SMILES = "Smiles"
    GRAPH = "Graph"
    NONE = "None"


#: Chance that a one-modality mask falls on the SMILES side.
MODALITY_COIN = 0.5


class StrategyMismatch(ValueError):
    """An ablation sampler was called with the wrong strategy configured."""


@dataclass(frozen=True)
class MaskConfig:
    """Masking hyperparameters; ratios default to 0.2 (token) / 0.6 (fragment)."""

    r_t: float = 0.2
    r_f: float = 0.6
    strategy: Strategy = Strategy.CMM
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.r_t <= 1.0 or not 0.0 <= self.r_f <= 1.0:
            raise ConfigError("mask ratios must lie in [0, 1]")
        check_at_least(self, {"seed": 0})


@dataclass(frozen=True)
class MaskedSample:
    """Masked positions plus the prediction targets at exactly those spots."""

    masked_token_positions: tuple[int, ...] = ()
    masked_atom_positions: tuple[int, ...] = ()
    masked_fragment_ids: tuple[int, ...] = ()
    masked_modality: Modality = Modality.NONE
    token_targets: dict[int, int] = field(default_factory=dict)
    atom_context_targets: dict[int, int] = field(default_factory=dict)


def mask_count(total: int, ratio: float) -> int:
    """floor(total * ratio), but never less than one for nonempty inputs."""
    if total <= 0:
        return 0
    return max(1, math.floor(total * ratio))


def _draw(rng: np.random.Generator, total: int, ratio: float) -> tuple[int, ...]:
    count = mask_count(total, ratio)
    return tuple(sorted(int(i) for i in rng.choice(total, size=count, replace=False)))


def _masked(sample, modality: Modality, token_pos: tuple[int, ...] = (),
            atom_pos: tuple[int, ...] = (),
            frag_ids: tuple[int, ...] = ()) -> MaskedSample:
    """The sample's masked positions with their targets read from ``sample``."""
    return MaskedSample(
        masked_token_positions=token_pos,
        masked_atom_positions=atom_pos,
        masked_fragment_ids=frag_ids,
        masked_modality=modality,
        token_targets={i: sample.token_ids[i] for i in token_pos},
        atom_context_targets={i: sample.context_ids[i] for i in atom_pos},
    )


def sample_token_mask(sample, config: MaskConfig,
                      rng: np.random.Generator) -> MaskedSample:
    """Independent token and atom masks at ratio ``r_t`` in both modalities."""
    token_pos = _draw(rng, len(sample.token_ids), config.r_t)
    atom_pos = _draw(rng, sample.graph.m, config.r_t)
    return _masked(sample, Modality.NONE, token_pos, atom_pos)


def sample_fragment_mask(sample, config: MaskConfig,
                         rng: np.random.Generator) -> MaskedSample:
    """Mask whole fragments of ``sample.fragment_map`` in exactly one
    modality chosen by the coin."""
    fragment_map = sample.fragment_map
    frag_ids = _draw(rng, fragment_map.K, config.r_f)
    chosen = set(frag_ids)
    if rng.random() < MODALITY_COIN:
        token_pos = tuple(i for i, lab in enumerate(fragment_map.l_s) if lab in chosen)
        return _masked(sample, Modality.SMILES, token_pos=token_pos, frag_ids=frag_ids)
    atom_pos = tuple(i for i, lab in enumerate(fragment_map.l_g) if lab in chosen)
    return _masked(sample, Modality.GRAPH, atom_pos=atom_pos, frag_ids=frag_ids)


def sample_ablation_mask(sample, config: MaskConfig,
                         rng: np.random.Generator) -> MaskedSample:
    """Token-level masking variants used by the masking-strategy ablations.

    CONDITIONAL masks token positions in exactly one modality per sample;
    SINGLE_MODALITY masks both (the encoder keeps the modalities apart: it
    attends over a blocked view's tokens and its atoms as two sequences).

    Raises:
        StrategyMismatch: when the configured strategy is CMM.
    """
    if config.strategy is Strategy.CMM:
        raise StrategyMismatch("ablation sampler called with the CMM strategy")
    if config.strategy is Strategy.SINGLE_MODALITY:
        return sample_token_mask(sample, config, rng)
    if rng.random() < MODALITY_COIN:
        token_pos = _draw(rng, len(sample.token_ids), config.r_t)
        return _masked(sample, Modality.SMILES, token_pos=token_pos)
    return _masked(sample, Modality.GRAPH, atom_pos=_draw(rng, sample.graph.m, config.r_t))


# ------------------------------------------------------------ context classes

ContextKey = tuple[str, tuple[tuple[int, str], ...]]

_ORDER_VALUE = {order: order.value for order in BondOrder}


def context_key(graph: MolecularGraph, atom_index: int) -> ContextKey:
    """(element, sorted (bond order, neighbor element) multiset) at 1 hop."""
    neighborhood = tuple(sorted(
        (_ORDER_VALUE[bond.order], graph.atoms[j].element)
        for j, bond in graph.neighbors(atom_index)
    ))
    return (graph.atoms[atom_index].element, neighborhood)


#: The first-seen tuple of each recent key, so that a graph's kept keys
#: are pointers to shared tuples: a corpus has a few hundred distinct keys.
_shared_key = functools.lru_cache(maxsize=4096)(lambda key: key)


@once_per_graph
def context_keys(graph: MolecularGraph) -> tuple[ContextKey, ...]:
    """Every atom's ``context_key``, made once per graph."""
    return tuple([_shared_key(context_key(graph, i)) for i in range(graph.m)])


@dataclass(frozen=True)
class ContextVocabulary:
    """Frozen map from context key to class id; unseen keys share Other."""

    key_to_id: dict[ContextKey, int]

    @property
    def other_id(self) -> int:
        return len(self.key_to_id)

    @property
    def size(self) -> int:
        return len(self.key_to_id) + 1

    def ids_for_graph(self, graph: MolecularGraph) -> list[int]:
        other = self.other_id
        return [self.key_to_id.get(key, other) for key in context_keys(graph)]


def build_context_vocab(graphs) -> ContextVocabulary:
    """Ids assigned by first occurrence in corpus order; Other comes last."""
    key_to_id: dict[ContextKey, int] = {}
    count = 0
    for graph in graphs:
        count += 1
        for key in context_keys(graph):
            if key not in key_to_id:
                key_to_id[key] = len(key_to_id)
    if count == 0:
        raise EmptyCorpus("context vocabulary needs at least one molecule")
    return ContextVocabulary(key_to_id=key_to_id)

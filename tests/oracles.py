"""Reference implementations the tests compare the library against.

Each is a plain, loop-by-loop version of something the library now does
faster or no longer needs outside the tests. They are kept verbatim in
behaviour: a difference from the library is a bug in the library.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import numpy as np

from chemfuse.chem import BondOrder, MolecularGraph, Token, TokenKind, TokenSequence
from chemfuse.chem.errors import EmptyInput, UnbalancedBracket
from chemfuse.features import (
    BOND_FEATURE_DIM,
    check_fingerprint_shape,
    featurize,
    masked_atom_row,
    masked_bond_row,
)
from chemfuse.fragments import (
    COMPATIBLE_PAIRS,
    ENVIRONMENTS,
    FragmentMap,
    FragmentOutOfRange,
)

from chemfuse.nn.layers import _split_heads, _t
from chemfuse.nn.tensor import _by_length

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def generated_corpus(seed: int, count: int) -> list[str]:
    """``count`` seeded 40-100 atom molecules from the benchmark's generator,
    loaded from its file without putting the benchmark on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.large_corpus(seed, count)


# ----------------------------------------------------------------- front end

_TOKEN_RE = re.compile(r"(\[[^\]]*\]|Br|Cl|@@|%\d{2}|.)", re.DOTALL)
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


def tokenize(smiles: str) -> TokenSequence:
    """The tokenizer classifying every token text by rule, with spans from
    the regex matches."""
    if not smiles:
        raise EmptyInput("cannot tokenize an empty SMILES string")
    tokens = []
    atom_counter = 0
    pos = 0
    for match in _TOKEN_RE.finditer(smiles):
        text = match.group(0)
        if text == "[":
            raise UnbalancedBracket(f"'[' at byte {pos} never closed in {smiles!r}")
        kind = _classify(text)
        atom_index = None
        if kind in (TokenKind.ATOM, TokenKind.BRACKET_ATOM):
            atom_index = atom_counter
            atom_counter += 1
        tokens.append(Token(text=text, kind=kind, char_span=(pos, match.end()),
                            atom_index=atom_index))
        pos = match.end()
    return TokenSequence(tuple(tokens))


def mark_rings(graph: MolecularGraph) -> None:
    """Ring flags from a bridge search that steps one edge per stack entry,
    then each atom's flag from a scan of its bonds."""
    m = graph.m
    for bond in graph.bonds:
        bond.in_ring = False
    disc = [-1] * m
    low = [0] * m
    timer = 0
    for root in range(m):
        if disc[root] != -1:
            continue
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            node, in_bond, ptr = stack.pop()
            if ptr < len(graph.adjacency[node]):
                stack.append((node, in_bond, ptr + 1))
                bi = graph.adjacency[node][ptr]
                if bi == in_bond:
                    continue
                nxt = graph.bonds[bi].other(node)
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    stack.append((nxt, bi, 0))
                else:
                    graph.bonds[bi].in_ring = True
                    low[node] = min(low[node], disc[nxt])
            elif in_bond != -1:
                parent = graph.bonds[in_bond].other(node)
                low[parent] = min(low[parent], low[node])
                if low[node] <= disc[parent]:
                    graph.bonds[in_bond].in_ring = True
    for i, atom in enumerate(graph.atoms):
        atom.in_ring = any(graph.bonds[bi].in_ring for bi in graph.adjacency[i])


def is_carbonyl_carbon(g: MolecularGraph, i: int) -> bool:
    """The acyl-carbon test made afresh from atom ``i``'s neighbours."""
    a = g.atoms[i]
    return a.element == "C" and not a.aromatic and any(
        bond.order is BondOrder.DOUBLE and g.atoms[j].element == "O"
        for j, bond in g.neighbors(i)
    )


def context_ids(graphs: list[MolecularGraph]) -> list[list[int]]:
    """Per graph, each atom's context class under a vocabulary built from
    ``graphs`` by first occurrence, every key made afresh."""
    def key(g, i):
        return (g.atoms[i].element, tuple(sorted(
            (bond.order.value, g.atoms[j].element) for j, bond in g.neighbors(i))))

    key_to_id: dict = {}
    for g in graphs:
        for i in range(g.m):
            key_to_id.setdefault(key(g, i), len(key_to_id))
    return [[key_to_id[key(g, i)] for i in range(g.m)] for g in graphs]


# --------------------------------------------------------------- fingerprint

_MIX_CONST = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_ELEMENT_CODE = {sym: i for i, sym in enumerate(
    "H B C N O F Na Mg Si P S Cl K Ca Se Br I".split(), start=1)}


def _mix64(value: int) -> int:
    z = (value + _MIX_CONST) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _hash_tuple(items: tuple) -> int:
    h = 0x51AFD7ED558CCD25
    for item in items:
        h = _mix64(h ^ _mix64(item))
    return h


def _seed_atom_id(graph: MolecularGraph, i: int) -> int:
    a = graph.atoms[i]
    code = _ELEMENT_CODE.get(a.element, 0)
    return _hash_tuple((code, a.degree, a.formal_charge + 16, a.total_h,
                        int(a.aromatic)))


def morgan_fingerprint(graph: MolecularGraph, radius: int = 2,
                       width: int = 2048) -> np.ndarray:
    """The fingerprint hashed one Python integer at a time."""
    check_fingerprint_shape(radius, width)
    bits = np.zeros(width, dtype=np.uint8)
    ids = [_seed_atom_id(graph, i) for i in range(graph.m)]
    for aid in ids:
        bits[aid % width] = 1
    bond_envs: list[frozenset[int]] = [frozenset() for _ in range(graph.m)]
    alive = [True] * graph.m
    for _ in range(radius):
        new_ids = []
        new_envs = []
        for i in range(graph.m):
            neighborhood = tuple(sorted(
                (bond.order.value, ids[j]) for j, bond in graph.neighbors(i)
            ))
            new_ids.append(_hash_tuple((ids[i],) + tuple(
                x for pair in neighborhood for x in pair)))
            env = set(bond_envs[i])
            env.update(graph.adjacency[i])
            for j, _ in graph.neighbors(i):
                env.update(bond_envs[j])
            new_envs.append(frozenset(env))
        for i in range(graph.m):
            if alive[i] and new_envs[i] != bond_envs[i]:
                bits[new_ids[i] % width] = 1
            elif new_envs[i] == bond_envs[i]:
                alive[i] = False
        ids = new_ids
        bond_envs = new_envs
    return bits


def popcount(bits: np.ndarray) -> int:
    return int(bits.sum())


# ---------------------------------------------------------- functional groups

def _acyl_carbons(g: MolecularGraph) -> list[int]:
    return [i for i in range(g.m) if is_carbonyl_carbon(g, i)]


def _hydroxyl_o(g: MolecularGraph, i: int) -> bool:
    a = g.atoms[i]
    return (a.element == "O" and not a.aromatic and a.formal_charge == 0
            and a.degree == 1 and a.total_h >= 1)


def _single_c_neighbors(g: MolecularGraph, i: int) -> list[int]:
    return [j for j, bond in g.neighbors(i)
            if bond.order is BondOrder.SINGLE and g.atoms[j].element == "C"]


def _has_hydroxyl(g):
    for idx, a in enumerate(g.atoms):
        if not _hydroxyl_o(g, idx):
            continue
        j = g.neighbors(idx)[0][0]
        nb = g.atoms[j]
        if nb.element == "C" and not nb.aromatic and not is_carbonyl_carbon(g, j):
            return True
    return False


def _has_phenol(g):
    for idx in range(g.m):
        if _hydroxyl_o(g, idx):
            j = g.neighbors(idx)[0][0]
            if g.atoms[j].element == "C" and g.atoms[j].aromatic:
                return True
    return False


def _has_carboxylic_acid(g):
    for i in _acyl_carbons(g):
        for j, bond in g.neighbors(i):
            if bond.order is BondOrder.SINGLE and g.atoms[j].element == "O":
                o = g.atoms[j]
                if o.degree == 1 and (o.total_h >= 1 or o.formal_charge == -1):
                    return True
    return False


def _has_ester(g):
    for i in _acyl_carbons(g):
        for j, bond in g.neighbors(i):
            if (bond.order is BondOrder.SINGLE and g.atoms[j].element == "O"
                    and g.atoms[j].degree == 2):
                return True
    return False


def _has_amide(g):
    return any(
        bond.order is BondOrder.SINGLE and g.atoms[j].element == "N"
        for i in _acyl_carbons(g) for j, bond in g.neighbors(i)
    )


def _has_aldehyde(g):
    return any(g.atoms[i].total_h >= 1 for i in _acyl_carbons(g))


def _has_ketone(g):
    return any(not g.atoms[i].total_h and len(_single_c_neighbors(g, i)) == 2
               for i in _acyl_carbons(g))


def _has_ether(g):
    for i, a in enumerate(g.atoms):
        if a.element != "O" or a.aromatic or a.degree != 2 or a.formal_charge:
            continue
        nbrs = g.neighbors(i)
        if all(bond.order is BondOrder.SINGLE and g.atoms[j].element == "C"
               and not is_carbonyl_carbon(g, j) for j, bond in nbrs):
            return True
    return False


def _plain_amine_n(g, i):
    a = g.atoms[i]
    if a.element != "N" or a.aromatic or a.formal_charge != 0:
        return False
    nbrs = g.neighbors(i)
    if any(bond.order is not BondOrder.SINGLE for _, bond in nbrs):
        return False
    if any(g.atoms[j].element != "C" or is_carbonyl_carbon(g, j) for j, _ in nbrs):
        return False
    return True


def _has_amine_of_degree(g, degree):
    return any(
        g.atoms[i].degree == degree and _plain_amine_n(g, i)
        for i in range(g.m)
    )


def _has_nitro(g):
    for i, a in enumerate(g.atoms):
        if a.element != "N":
            continue
        terminal_o = [
            (j, bond) for j, bond in g.neighbors(i)
            if g.atoms[j].element == "O" and g.atoms[j].degree == 1
        ]
        if len(terminal_o) >= 2 and any(
                bond.order is BondOrder.DOUBLE for _, bond in terminal_o):
            return True
    return False


def _has_nitrile(g):
    return any(
        bond.order is BondOrder.TRIPLE
        and {g.atoms[bond.a].element, g.atoms[bond.b].element} == {"C", "N"}
        for bond in g.bonds
    )


def _has_thiol(g):
    return any(
        a.element == "S" and not a.aromatic and a.degree == 1 and a.total_h >= 1
        for a in g.atoms
    )


def _is_sulfonyl_sulfur(g: MolecularGraph, i: int) -> bool:
    """A sulfur with at least two double bonds to oxygen."""
    return g.atoms[i].element == "S" and sum(
        1 for j, bond in g.neighbors(i)
        if bond.order is BondOrder.DOUBLE and g.atoms[j].element == "O"
    ) >= 2


def _has_thioether(g):
    for i, a in enumerate(g.atoms):
        if (a.element == "S" and not a.aromatic and a.degree == 2
                and not _is_sulfonyl_sulfur(g, i)
                and all(bond.order is BondOrder.SINGLE and g.atoms[j].element == "C"
                        for j, bond in g.neighbors(i))):
            return True
    return False


def _has_sulfonamide(g):
    return any(
        _is_sulfonyl_sulfur(g, i) and any(
            bond.order is BondOrder.SINGLE and g.atoms[j].element == "N"
            for j, bond in g.neighbors(i))
        for i in range(g.m)
    )


def _has_sulfone(g):
    for i in range(g.m):
        if not _is_sulfonyl_sulfur(g, i):
            continue
        single = [(j, b) for j, b in g.neighbors(i) if b.order is BondOrder.SINGLE]
        if len(single) == 2 and all(g.atoms[j].element == "C" for j, _ in single):
            return True
    return False


def _has_halogen(elem):
    def check(g):
        return any(a.element == elem for a in g.atoms)
    return check


def _has_aromatic_ring(g):
    return any(a.aromatic and a.in_ring for a in g.atoms)


def _has_nonaromatic_ring(g):
    return any(b.in_ring and b.order is not BondOrder.AROMATIC for b in g.bonds)


def _has_alkene(g):
    return any(
        b.order is BondOrder.DOUBLE
        and g.atoms[b.a].element == "C" and g.atoms[b.b].element == "C"
        and not (g.atoms[b.a].aromatic or g.atoms[b.b].aromatic)
        for b in g.bonds
    )


#: Group name -> predicate, in the library's bit order.
_FUNCTIONAL_GROUPS = (
    ("hydroxyl", _has_hydroxyl),
    ("phenol", _has_phenol),
    ("carboxylic_acid", _has_carboxylic_acid),
    ("ester", _has_ester),
    ("amide", _has_amide),
    ("aldehyde", _has_aldehyde),
    ("ketone", _has_ketone),
    ("ether", _has_ether),
    ("primary_amine", lambda g: _has_amine_of_degree(g, 1)),
    ("secondary_amine", lambda g: _has_amine_of_degree(g, 2)),
    ("tertiary_amine", lambda g: _has_amine_of_degree(g, 3)),
    ("nitro", _has_nitro),
    ("nitrile", _has_nitrile),
    ("thiol", _has_thiol),
    ("thioether", _has_thioether),
    ("sulfonamide", _has_sulfonamide),
    ("sulfone", _has_sulfone),
    ("fluoro", _has_halogen("F")),
    ("chloro", _has_halogen("Cl")),
    ("bromo", _has_halogen("Br")),
    ("iodo", _has_halogen("I")),
    ("aromatic_ring", _has_aromatic_ring),
    ("nonaromatic_ring", _has_nonaromatic_ring),
    ("alkene", _has_alkene),
)


def functional_groups(graph: MolecularGraph) -> list[int]:
    """Presence bit per group, each group a scan of the whole graph."""
    return [1 if pred(graph) else 0 for _, pred in _FUNCTIONAL_GROUPS]


# ----------------------------------------------------------------- fragments

def atom_environments(graph: MolecularGraph, i: int) -> set[str]:
    """Ids of the environments atom ``i`` matches, every rule tried."""
    return {rule.name for rule in ENVIRONMENTS if rule.matches(graph, i)}


def brics_cleave(graph: MolecularGraph) -> tuple[int, list[int], list[int]]:
    """Cleavage with each bond's end-atom environments recomputed per bond."""
    cleaved = []
    for bi, bond in enumerate(graph.bonds):
        if bond.order is not BondOrder.SINGLE or bond.in_ring:
            continue
        envs_a = atom_environments(graph, bond.a)
        if not envs_a:
            continue
        envs_b = atom_environments(graph, bond.b)
        if any(frozenset((ea, eb)) in COMPATIBLE_PAIRS for ea in envs_a for eb in envs_b):
            cleaved.append(bi)
    removed = set(cleaved)
    l_g = [-1] * graph.m
    k = 0
    for start in range(graph.m):
        if l_g[start] != -1:
            continue
        queue = [start]
        l_g[start] = k
        while queue:
            node = queue.pop()
            for bi in graph.adjacency[node]:
                if bi in removed:
                    continue
                nxt = graph.bonds[bi].other(node)
                if l_g[nxt] == -1:
                    l_g[nxt] = k
                    queue.append(nxt)
        k += 1
    return k, l_g, cleaved


def fragment_members(fmap: FragmentMap, k: int) -> tuple[list[int], list[int]]:
    """Atom ids and token ids belonging to fragment ``k``.

    Raises:
        FragmentOutOfRange: if ``k`` is not in [0, K).
    """
    if not 0 <= k < fmap.K:
        raise FragmentOutOfRange(f"fragment {k} out of range [0, {fmap.K})")
    atoms = [i for i, label in enumerate(fmap.l_g) if label == k]
    toks = [i for i, label in enumerate(fmap.l_s) if label == k]
    return atoms, toks


# ------------------------------------------------------------ canon, scaffold

def refine(graphs: list[MolecularGraph]) -> list[list[int]]:
    """``canon._refine`` with Python tuples: each round sorts the set of
    (rank, sorted (bond order, neighbour rank) pairs) signatures."""
    offsets = []
    total = 0
    for g in graphs:
        offsets.append(total)
        total += g.m
    neighbor_lists: list[list[tuple[int, int]]] = [[] for _ in range(total)]
    for g, off in zip(graphs, offsets):
        for i in range(g.m):
            neighbor_lists[off + i] = [
                (bond.order.value, off + j) for j, bond in g.neighbors(i)
            ]

    seeds: list[tuple] = []
    for g in graphs:
        seeds.extend((a.element, a.degree, a.formal_charge, a.total_h, a.aromatic,
                      a.in_ring) for a in g.atoms)
    order = {t: r for r, t in enumerate(sorted(set(seeds)))}
    ids = [order[t] for t in seeds]

    distinct = len(order)
    for _ in range(max(1, total)):
        signatures = [
            (ids[i], tuple(sorted((ov, ids[j]) for ov, j in neighbor_lists[i])))
            for i in range(total)
        ]
        order = {t: r for r, t in enumerate(sorted(set(signatures)))}
        new_ids = [order[t] for t in signatures]
        if len(order) == distinct:
            ids = new_ids
            break
        distinct = len(order)
        ids = new_ids

    out = []
    for g, off in zip(graphs, offsets):
        out.append(ids[off:off + g.m])
    return out


def murcko_keep(graph: MolecularGraph) -> list[int]:
    """The atoms ``features.murcko_scaffold`` keeps, found by re-scanning
    the kept atoms for non-ring atoms of degree at most one until none is
    left."""
    keep = set(range(graph.m))
    degree = {i: graph.atoms[i].degree for i in keep}
    changed = True
    while changed:
        changed = False
        for i in sorted(keep):
            if degree[i] <= 1 and not graph.atoms[i].in_ring:
                keep.discard(i)
                for j, _ in graph.neighbors(i):
                    if j in keep:
                        degree[j] -= 1
                changed = True
    return sorted(keep)


# ------------------------------------------------------------------- encoder

def graph_union(graphs, masked_atoms=()):
    """``encoder.graph_union`` bond by bond: each bond adds each end atom to
    the other's neighbour list and its feature row to both end atoms' sums
    in turn. The lists are then sorted and padded with the atom count."""
    masked_atoms = masked_atoms or [()] * len(graphs)
    total = sum(graph.m for graph in graphs)
    neighbour_lists = [[] for _ in range(total)]
    edge_sum = np.zeros((total, BOND_FEATURE_DIM))
    atom_rows = []
    offset = 0
    for graph, masked in zip(graphs, masked_atoms):
        atom_feats, bond_feats = (a.copy() for a in featurize(graph))
        masked = set(masked)
        for i in masked:
            atom_feats[i] = masked_atom_row()
        for bi, bond in enumerate(graph.bonds):
            if bond.a in masked or bond.b in masked:
                bond_feats[bi] = masked_bond_row()
            a, b = offset + bond.a, offset + bond.b
            neighbour_lists[a].append(b)
            neighbour_lists[b].append(a)
            edge_sum[a] += bond_feats[bi]
            edge_sum[b] += bond_feats[bi]
        atom_rows.append(atom_feats)
        offset += graph.m
    width = max(map(len, neighbour_lists), default=0)
    neighbours = np.array([sorted(js) + [total] * (width - len(js)) for js in neighbour_lists],
                          dtype=np.int64).reshape(total, width)
    return np.concatenate(atom_rows), neighbours, edge_sum


def neighbour_sum(rows, neighbours):
    """Each row of ``rows`` summed over the row ids ``neighbours`` lists,
    one addition at a time; ids of ``len(rows)`` or more are padding."""
    out = np.zeros_like(rows)
    for i, ids in enumerate(neighbours):
        for j in ids:
            if j < len(rows):
                out[i] += rows[j]
    return out


# -------------------------------------------------------------------- nn ops

def gelu_and_derivative(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-form GELU of ``x`` and its derivative, each as its own chain of
    in-place updates."""
    alpha, beta = np.sqrt(2.0 / np.pi), 0.044715
    t = x * x
    t *= x
    t *= beta
    t += x
    t *= alpha
    np.tanh(t, out=t)
    out = 0.5 * x
    out *= 1.0 + t
    d_inner = x * x
    d_inner *= 3.0 * beta
    d_inner += 1.0
    d_inner *= alpha
    da = t * t
    np.subtract(1.0, da, out=da)
    da *= 0.5 * x
    da *= d_inner
    d_inner[...] = 1.0 + t
    d_inner *= 0.5
    da += d_inner
    return out, da


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray,
                       beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise LayerNorm with epsilon 1e-5 from ``np.mean`` and ``np.var``;
    returns the output, x-hat and 1/std."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    return xhat * gamma + beta, xhat, inv


def layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                        gamma: np.ndarray) -> np.ndarray:
    """Input gradient of a row-wise LayerNorm as one expression."""
    gg = g * gamma
    term = gg - gg.mean(axis=1, keepdims=True) \
        - xhat * (gg * xhat).sum(axis=1, keepdims=True) / xhat.shape[1]
    return term * inv


#: Additive attention bias that blocked a position.
BLOCK = -1e30


def biased_attention(x, heads, params, lengths, attn_bias=None, retain=None) -> np.ndarray:
    """Forward of packed multi-head attention with a per-sequence additive
    bias: ``attn_bias`` is None or holds, per sequence, an (L x L) array
    added to every head's scores, or None. The encoder once blocked the two
    modalities of a view from each other with ``BLOCK`` off the diagonal
    blocks; that view now attends as two sequences."""
    p = params
    width = p.wq.shape[1]
    starts = np.cumsum(lengths) - lengths
    biases = attn_bias or [None] * len(lengths)
    groups = list(_by_length(lengths).items())
    order = np.concatenate([(starts[members][:, None] + np.arange(length)).ravel()
                            for length, members in groups] or [np.arange(0)])
    grouped = np.array_equal(order, np.arange(order.size))
    x_rows = x.data if grouped else x.data[order]
    w_qkv = np.concatenate([p.wq.data, p.wk.data, p.wv.data], axis=1)
    qkv = x_rows @ w_qkv
    qkv += np.concatenate([p.bq.data, p.bk.data, p.bv.data], axis=1)
    factor = 1.0 / np.sqrt(width // heads)
    context = np.empty((order.size, width))
    saved = []
    lo = 0
    for length, members in groups:
        block = slice(lo, lo + len(members) * length)
        lo = block.stop
        qh, kh, vh = (_split_heads(qkv[block, i * width:(i + 1) * width], length, heads)
                      for i in range(3))
        probs = qh @ _t(kh)
        probs *= factor
        if any(biases[k] is not None for k in members):
            probs += np.stack([np.zeros((length, length)) if biases[k] is None
                               else biases[k] for k in members])[:, None]
        probs -= probs.max(axis=3, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=3, keepdims=True)
        np.matmul(probs, vh, out=_split_heads(context[block], length, heads))
        saved.append((block, length, qh, kh, vh, probs))
    if retain is not None:
        by_sequence = {s: seq for (_, members), (*_, probs) in zip(groups, saved)
                       for s, seq in zip(members, probs)}
        retain.extend(head.copy() for s in sorted(by_sequence) for head in by_sequence[s])
    out_data = context @ p.wo.data
    out_data += p.bo.data
    if not grouped:
        inverse = np.argsort(order)
        out_data = out_data[inverse]
    return out_data


def segment_mean_grad(rows: int, segments, g: np.ndarray) -> np.ndarray:
    """Gradient of ``segment_mean`` with respect to its ``rows``-row input:
    every segment adds its share into its rows with ``np.add.at``, segments
    of one length as one call, lengths in order of first appearance."""
    acc = np.zeros((rows, g.shape[1]))
    lengths: dict[int, list[int]] = {}
    for k, seg in enumerate(segments):
        lengths.setdefault(len(seg), []).append(k)
    for length, members in lengths.items():
        idx = np.stack([np.asarray(segments[k], dtype=np.int64) for k in members])
        np.add.at(acc, idx, (g[members] / length)[:, None, :])
    return acc


def adam_step(params, state) -> None:
    """Decoupled-weight-decay Adam with moments made by ``setdefault`` and
    the update built from fresh temporaries."""
    state.step += 1
    t = state.step
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p in params:
        g = p.grad
        if g is None:
            continue
        m = state.m.setdefault(p.name, np.zeros_like(p.data))
        v = state.v.setdefault(p.name, np.zeros_like(p.data))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if state.weight_decay:
            update = update + state.weight_decay * p.data
        p.data -= state.lr * update


def add_at_rows(ids: np.ndarray, g: np.ndarray, rows: int) -> np.ndarray:
    """``rows`` rows of zeros with each row of ``g`` added into row ``ids[i]``
    by ``np.add.at``, in the order of ``ids``."""
    acc = np.zeros((rows, g.shape[1]))
    np.add.at(acc, ids, g)
    return acc


# ------------------------------------------------------------------- metrics

def concordance_index(predictions, truths) -> float:
    """``metrics.concordance_index`` pair by pair in a double loop."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    n = predictions.size
    pairs = 0
    score = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if truths[i] == truths[j]:
                continue
            pairs += 1
            hi, lo = (i, j) if truths[i] > truths[j] else (j, i)
            if predictions[hi] > predictions[lo]:
                score += 1.0
            elif predictions[hi] == predictions[lo]:
                score += 0.5
    return float(score / pairs)


def roc_auc(scores, labels) -> float:
    """``metrics.roc_auc`` with midranks found by walking each run of tied
    scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))

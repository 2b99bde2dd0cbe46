"""Base-pointed chord diagrams, package coinvariants, and the graph bijection.

A chord diagram on m chords is a perfect pairing of {1..2m}; pairs are stored
(min, max) and sorted by first element, so the base point 1 opens the first
pair.  A standard pair monomial, a product of antisymmetric pair symbols
y_{a,b}, is the same data, so one type, `ChordDiagram`, serves as both and
the paper's φ between them is the identity.  Packaged diagrams take the
pairing modulo independent permutations of consecutive slot blocks
("packages"); a chord inside one package annihilates the class at
construction.

A class is fixed by the multiset of package pairs its chords join, and its
canonical representative, the lexicographically smallest pairing in the
orbit, is built from that multiset directly by the slot assignment of
`varphi_inverse` (see `_canonical_packaged`), in time linear in the number of
chords.  ``tests/test_diagrams.py`` checks it against the brute-force orbit
search ``_orbit_min``.

The differential contracts one cross-package chord at a time, deleting its
endpoints and merging the higher package's remaining slots into the lower one
(at the lower position, slot order preserved).  Its sign mirrors the graph
differential under the norm map exactly, so the square with edge contraction
commutes term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlinalg import LinComb
from .graphs import Graph, _require_ints, _require_json, _signed_pairs, graph, valences

__all__ = [
    "ChordDiagram",
    "PackagedDiagram",
    "chord_diagram",
    "pair_monomial",
    "phi",
    "sigma_act_diagram",
    "package",
    "diagram_differential",
    "varphi",
    "varphi_inverse",
    "all_pairings",
    "diagram_to_record",
    "diagram_from_record",
    "BadShapeError",
    "LowValenceError",
]


class BadShapeError(ValueError):
    pass


class LowValenceError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class ChordDiagram:
    """Perfect pairing of {1..2m}: sorted (min, max) pairs sorted by first slot.

    The same data is a standard pair monomial y_{a1,b1} ... y_{am,bm}, so
    this one type is both; signs from reversed pairs live in the enclosing
    linear combination.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"ChordDiagram({list(map(list, self.pairs))})"


def chord_diagram(pairs) -> ChordDiagram:
    """Build a canonical diagram; the pairs must partition {1..2m} exactly."""
    norm = sorted((min(a, b), max(a, b)) for a, b in pairs)
    m = len(norm)
    seen = [s for p in norm for s in p]
    if sorted(seen) != list(range(1, 2 * m + 1)):
        raise ValueError(f"pairs {pairs} do not partition 1..{2 * m}")
    return ChordDiagram(tuple(norm))


def pair_monomial(pairs) -> LinComb:
    """Normalize a written pair sequence to ±1 times a standard monomial.

    Each reversed pair costs -1 and a pair (a, a) gives zero.
    """
    signed = _signed_pairs(pairs)
    if signed is None:
        return LinComb.zero()
    sign, norm = signed
    slots = sorted(s for p in norm for s in p)
    if slots != list(range(1, 2 * len(norm) + 1)):
        raise ValueError(f"indices of {pairs} are not a permutation of 1..{2 * len(norm)}")
    return LinComb.of(ChordDiagram(norm), sign)


def phi(d: ChordDiagram) -> ChordDiagram:
    """φ from standard pair monomials to chord diagrams: the identity.

    Both are the same pairing data, held by the one type ChordDiagram.
    ``perfbench/workloads.py`` still calls φ between `tstar` and `package`.
    """
    return d


def sigma_act_diagram(perm, d: ChordDiagram) -> LinComb:
    """Signed slot relabelling by perm^{-1}, collecting -1 per reversed pair."""
    perm = tuple(perm)
    if len(perm) != 2 * d.m or sorted(perm) != list(range(1, 2 * d.m + 1)):
        raise ValueError(f"permutation {perm} does not act on {2 * d.m} slots")
    inv = [0] * (len(perm) + 1)
    for k, v in enumerate(perm, start=1):
        inv[v] = k
    sign, pairs = _signed_pairs((inv[a], inv[b]) for a, b in d.pairs)
    return LinComb.of(ChordDiagram(pairs), sign)


@dataclass(frozen=True, order=True)
class PackagedDiagram:
    """Diagram modulo within-package slot permutations; canonical representative."""

    shape: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        return f"PackagedDiagram({list(self.shape)}, {list(map(list, self.pairs))})"


def _package_of(shape, slot: int) -> int:
    """1-indexed package containing a slot; packages are consecutive blocks."""
    acc = 0
    for k, size in enumerate(shape, start=1):
        acc += size
        if slot <= acc:
            return k
    raise IndexError(slot)


def _package_blocks(shape) -> list[range]:
    blocks = []
    start = 1
    for size in shape:
        blocks.append(range(start, start + size))
        start += size
    return blocks


def _slot_pairs(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Slot assignment: vertex v's edge-ends take consecutive slots.

    Vertex v owns the block of slots after those of vertices 1..v-1, one slot
    per edge-end; walking the sorted (i, j), i < j, edge list in order, each
    end takes the next free slot of its vertex.  Returns the sorted pairs.
    """
    valence = [0] * (n + 1)
    for i, j in edges:
        valence[i] += 1
        valence[j] += 1
    free = [1] * (n + 1)
    for v in range(2, n + 1):
        free[v] = free[v - 1] + valence[v - 1]
    pairs = []
    for i, j in edges:
        pairs.append((free[i], free[j]))
        free[i] += 1
        free[j] += 1
    return tuple(sorted(pairs))


def _canonical_packaged(shape, pairs) -> PackagedDiagram:
    """Lexicographic minimum of the within-package orbit, built directly.

    Cross-package pairs keep their written order under any within-package
    permutation (packages are increasing blocks), so the orbit carries no
    signs; intra-package pairs never reach here.  Sorted pairs list every
    chord leaving package k before any leaving package k + 1, and compare a
    chord's far end before the next chord's near end; so the minimum gives
    each package's incoming ends its first slots, ordered by source package,
    and its outgoing ends the rest, ordered by target package.  That is
    `_slot_pairs` on the sorted package pairs (``_orbit_min`` in
    ``tests/test_diagrams.py`` is the brute-force check).
    """
    owner = [0]
    for k, size in enumerate(shape, start=1):
        owner.extend([k] * size)
    edges = sorted((owner[a], owner[b]) for a, b in pairs)
    return PackagedDiagram(tuple(shape), _slot_pairs(len(shape), edges))


def package(d: ChordDiagram, shape) -> LinComb:
    """Canonical class of a diagram under a package shape, or zero.

    Shape parts must be >= 2 and sum to 2m; a chord with both endpoints in
    one package annihilates the class.
    """
    shape = tuple(int(k) for k in shape)
    if any(k < 2 for k in shape) or sum(shape) != 2 * d.m:
        raise BadShapeError(f"shape {shape} incompatible with {2 * d.m} slots")
    for a, b in d.pairs:
        if _package_of(shape, a) == _package_of(shape, b):
            return LinComb.zero()
    return LinComb.of(_canonical_packaged(shape, d.pairs))


def varphi(pd: PackagedDiagram) -> Graph:
    """Collapse each package to a vertex: chords become edges under the norm map."""
    shape = pd.shape
    edges = [(_package_of(shape, a), _package_of(shape, b)) for a, b in pd.pairs]
    return graph(len(shape), edges)


def varphi_inverse(g: Graph) -> PackagedDiagram:
    """Slot-assignment algorithm: vertex v's edge-ends take consecutive slots.

    Walking vertices in increasing order and the canonical edge list in order,
    each occurrence of the vertex receives the next free slot; the resulting
    pairing, packaged by the valence shape, maps back to g under the norm map.
    The edges of g are its package pairs, so this pairing is already the
    canonical representative of its class (see `_canonical_packaged`).
    """
    vals = valences(g)
    if any(v < 2 for v in vals):
        raise LowValenceError(f"every vertex needs valence >= 2, got {vals}")
    return PackagedDiagram(tuple(vals), _slot_pairs(g.n, g.edges))


def _contract_chord(pd: PackagedDiagram, chord: tuple[int, int]) -> PackagedDiagram | None:
    """Delete a cross-package chord, merging the higher package into the lower.

    Slot order inside the merged package: lower package's remains first.
    Returns None when a surviving chord lands inside the merged package.
    """
    a, b = chord
    shape = pd.shape
    pa, pb = _package_of(shape, a), _package_of(shape, b)
    blocks = _package_blocks(shape)
    merged = [s for s in blocks[pa - 1] if s != a] + [s for s in blocks[pb - 1] if s != b]
    new_order: list[int] = []
    for k in range(1, len(shape) + 1):
        if k == pa:
            new_order.extend(merged)
        elif k == pb:
            continue
        else:
            new_order.extend(blocks[k - 1])
    relabel = {old: new for new, old in enumerate(new_order, start=1)}
    new_shape = list(shape)
    new_shape[pa - 1] = shape[pa - 1] + shape[pb - 1] - 2
    del new_shape[pb - 1]
    new_pairs = []
    for x, y in pd.pairs:
        if (x, y) == (a, b):
            continue
        x2, y2 = relabel[x], relabel[y]
        p, q = min(x2, y2), max(x2, y2)
        if _package_of(new_shape, p) == _package_of(new_shape, q):
            return None
        new_pairs.append((p, q))
    return _canonical_packaged(tuple(new_shape), new_pairs)


def _chord_sign(pd: PackagedDiagram, chord: tuple[int, int]) -> int:
    """(-1)^(package of the larger endpoint) times the re-orientation factor.

    The factor counts other chords ending in that package whose far endpoint
    sits strictly between the two merged packages, matching the graph side.
    """
    a, b = chord
    shape = pd.shape
    pa, pb = _package_of(shape, a), _package_of(shape, b)
    flips = 0
    for x, y in pd.pairs:
        if (x, y) == (a, b):
            continue
        px, py = _package_of(shape, x), _package_of(shape, y)
        if py == pb and pa < px < pb:
            flips += 1
    return (-1) ** pb * (-1 if flips % 2 else 1)


def diagram_differential(x: LinComb) -> LinComb:
    """∂ extended linearly over packaged diagram classes."""
    def per_diagram(pd: PackagedDiagram) -> LinComb:
        out = LinComb.zero()
        for chord in pd.pairs:
            contracted = _contract_chord(pd, chord)
            if contracted is None:
                continue
            out = out + LinComb.of(contracted, _chord_sign(pd, chord))
        return out
    return x.mapped(per_diagram)


def all_pairings(m: int):
    """All perfect pairings of {1..2m} in canonical form; (2m-1)!! of them."""
    def rec(slots):
        if not slots:
            yield ()
            return
        first = slots[0]
        for k in range(1, len(slots)):
            partner = slots[k]
            rest = slots[1:k] + slots[k + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail
    return [ChordDiagram(p) for p in rec(tuple(range(1, 2 * m + 1)))]


def diagram_to_record(pd: PackagedDiagram) -> dict:
    return {"shape": list(pd.shape), "pairs": [list(p) for p in pd.pairs]}


def diagram_from_record(rec: dict) -> LinComb:
    _require_json(rec, dict, "a diagram record")
    pairs = [tuple(_require_json(p, list, "a pair"))
             for p in _require_json(rec["pairs"], list, "pairs")]
    shape = tuple(_require_json(rec["shape"], list, "a shape"))
    _require_ints([*shape, *(s for p in pairs for s in p)], "shape parts and slots")
    return package(chord_diagram(pairs), shape)

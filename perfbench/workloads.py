"""The three workloads, their inputs, and the checks on their outputs.

Each workload has ``setup(gh, seed, ref)``, which builds the inputs (and is
timed as set-up), and ``run(gh, inputs, tr)``, which does the work, checks
every item and returns an ``Outcome``.  ``gh`` is the namespace of program
modules, so the program is looked up at call time; ``tr`` is a tracer whose
``wrap`` returns the function itself in untraced runs.  ``pieces(gh, inputs,
tr, outcome)`` is the traced-only separate pass that times the public pieces
hidden inside one public call, on the same inputs; it returns the number of
items it checked and of those that failed.

Which layer each workload loads (the per-layer metric that should move
``wall_s`` there, and where it should stay flat):

- stripe-mixed-l2: ``graphs.differential_graph`` (via ``slice_from_bases``'s
  ``diff=``), ``homotopy.slice_from_bases.self_s`` (sparse build + d∘d
  compose) and ``exactlinalg.rank`` do most of the work;
  ``graphs.enumerate_graphs`` and ``homotopy.classify`` the rest.  None of
  these is called in the timed part of the other two workloads.
- lie-orbit: ``graphs.lie_class`` (vertex-relabelling canonical form)
  dominates; absent from the stripe and from bridge-square.
- bridge-square: ``symplectic.graph_to_word`` -> ``diagrams.varphi_inverse``
  -> ``package`` (slot-permutation canonical form) dominates, then
  ``word_to_graphs`` (``tstar`` then ``package``); no enumeration or rank in
  its timed part.

The stripe takes no seed: ``rank`` chooses pivots by row order.  On d6 of
the stripe it took 4.1 s in sorted basis order and 141 s after a seeded
shuffle of the bases, with the same rank (1763; Python 3.11, one process).
So the stripe keeps the sorted order every constructor produces.

``bialgebra`` and ``cli`` are not measured: no open item targets them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    sizes: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)


def item_hash(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=4).hexdigest()


def split_hashes(joined: str) -> list[str]:
    return [joined[k:k + 8] for k in range(0, len(joined), 8)]


# --------------------------------------------------------------- stripes

# Connected mixed graphs with e = n + 2 and minimum valence 2, for n <= 6.
STRIPE_LOOP, STRIPE_MAX_N, STRIPE_MIN_VALENCE = 2, 6, 2


def stripe_observe(gh, tr):
    """Build the stripe and its homology: (per-degree rows, the complex)."""
    enumerate_graphs = tr.wrap("graphs.enumerate_graphs", gh.graphs.enumerate_graphs, len)
    classify = tr.wrap("homotopy.classify", gh.homotopy.classify)
    mixed = gh.homotopy.Classification.MIXED
    bases = {}
    for n in range(1, STRIPE_MAX_N + 1):
        e = n + STRIPE_LOOP
        bases[n] = [g for g in enumerate_graphs(n, e, STRIPE_MIN_VALENCE, connected_only=True)
                    if len(g.edges) == e and classify(g) == mixed]
    diff = tr.wrap("graphs.differential_graph", gh.graphs.differential_graph, len)
    complex_ = tr.wrap("homotopy.slice_from_bases", gh.homotopy.slice_from_bases)(
        bases, diff=diff, project=True)
    homology = tr.wrap("exactlinalg.homology_dims", gh.exactlinalg.homology_dims)(complex_)
    return stripe_rows(complex_, homology), complex_


def stripe_rows(complex_, homology) -> dict:
    """Per degree: basis dim, nonzeros of d_k, rank of d_k, H_k, reliability.

    The ranks follow from the homology dims: rank d_{k+1} = dim_k - rank d_k - H_k.
    """
    lo, hi = complex_.degrees
    rows = {}
    rank_in = 0
    for k in range(lo, hi + 1):
        dim = len(complex_.basis[k])
        h_k, reliable = homology[k]
        mat = complex_.d.get(k)
        rows[str(k)] = {"basis": dim, "nnz": len(mat.entries) if mat else 0,
                        "rank": rank_in, "h": h_k, "reliable": reliable}
        rank_in = dim - rank_in - h_k
    return rows


def check_stripe(observed: dict, reference: dict) -> tuple[int, int]:
    """(degrees attempted, degrees whose row differs from the reference)."""
    degrees = set(observed) | set(reference)
    return len(degrees), sum(observed.get(k) != reference.get(k) for k in degrees)


def stripe_setup(gh, seed, ref):
    return ref["degrees"]


def stripe_run(gh, reference, tr) -> Outcome:
    try:
        rows, complex_ = stripe_observe(gh, tr)
    except gh.exactlinalg.NotAComplexError:
        return Outcome(len(reference), len(reference))
    attempted, failed = check_stripe(rows, reference)
    sizes = {f"homotopy.basis.d{k}": r["basis"] for k, r in rows.items()}
    sizes.update({f"homotopy.nnz.d{k}": r["nnz"] for k, r in rows.items() if k != "1"})
    return Outcome(attempted, failed, sizes, [complex_])


def stripe_pieces(gh, reference, tr, outcome: Outcome) -> tuple[int, int]:
    """Time rank per degree, which homology_dims hides, on the same matrices,
    and check each rank against the reference: (ranks checked, wrong)."""
    [complex_] = outcome.samples
    wrong = 0
    for k, mat in sorted(complex_.d.items()):
        rk = tr.span(f"exactlinalg.rank.d{k}", gh.exactlinalg.rank, mat)
        outcome.sizes[f"exactlinalg.rank.d{k}"] = rk
        wrong += rk != reference[str(k)]["rank"]
    return len(complex_.d), wrong


# ------------------------------------------------------------- lie-orbit

LIE_MAX_N, LIE_MAX_E = 5, 6


def lie_graphs(gh) -> list:
    return [g for n in range(1, LIE_MAX_N + 1) for g in gh.graphs.enumerate_graphs(n, LIE_MAX_E)]


def lie_setup(gh, seed, ref):
    """Each graph relabelled by a seeded random permutation via sigma_act."""
    rng = random.Random(seed)
    items = []
    for g, ref_hash in zip(lie_graphs(gh), split_hashes(ref["hashes"]), strict=True):
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        items.append((g, gh.graphs.sigma_act(perm, g), ref_hash))
    return items


def lie_item_text(g, cls) -> str:
    """(input graph, class representative, sign times the sigma_act coefficient)."""
    if not cls:
        return f"{g!r}|0"
    [(rep, coeff)] = cls.items()
    return f"{g!r}|{rep!r}|{coeff}"


def lie_run(gh, items, tr) -> Outcome:
    """Criterion 12's identity: δ then lie_class equals lie_class then δ_Lie."""
    differential = tr.wrap("graphs.differential", gh.graphs.differential)
    lie_class = tr.wrap("graphs.lie_class", gh.graphs.lie_class)
    lie_differential = tr.wrap("graphs.lie_differential", gh.graphs.lie_differential)
    out = Outcome(sizes={"items": len(items)})
    for g, x, ref_hash in items:
        cls = x.mapped(lie_class)
        lhs = differential(x).mapped(lie_class)
        rhs = lie_differential(cls)
        out.attempted += 1
        out.failed += lhs != rhs or item_hash(lie_item_text(g, cls)) != ref_hash
    return out


# --------------------------------------------------------- bridge-square

BRIDGE_MAX_N, BRIDGE_MAX_E, BRIDGE_WORDS = 4, 6, 50


def bridge_graphs(gh) -> list:
    return [g for n in range(1, BRIDGE_MAX_N + 1)
            for g in gh.graphs.enumerate_graphs(n, BRIDGE_MAX_E, min_valence=2)]


def random_split_word(gh, rng):
    """A word from a random pairing cut into 3-5 factors of degree 2 or 3."""
    shape = [rng.choice((2, 2, 3)) for _ in range(rng.randint(3, 5))]
    if sum(shape) % 2:
        shape[0] += 1
    slots = list(range(1, sum(shape) + 1))
    rng.shuffle(slots)
    pairs = [(slots[k], slots[k + 1]) for k in range(0, len(slots), 2)]
    return gh.symplectic.split_S(pairs, shape)


def bridge_setup(gh, seed, ref):
    rng = random.Random(seed)
    graphs = list(zip(bridge_graphs(gh), split_hashes(ref["hashes"]), strict=True))
    words = [random_split_word(gh, rng) for _ in range(BRIDGE_WORDS)]
    return {"graphs": graphs, "words": words}


def bridge_item_text(g, w, image) -> str:
    return f"{g!r}|{w!r}|{image!r}"


def bridge_run(gh, inputs, tr) -> Outcome:
    """Criterion 03's square: word_to_graphs ∘ leibniz equals δ ∘ word_to_graphs."""
    LinComb = gh.exactlinalg.LinComb
    graph_to_word = tr.wrap("symplectic.graph_to_word", gh.symplectic.graph_to_word)
    leibniz = tr.wrap("symplectic.leibniz_differential", gh.symplectic.leibniz_differential)
    word_to_graphs = tr.wrap("symplectic.word_to_graphs", gh.symplectic.word_to_graphs)
    differential = tr.wrap("graphs.differential", gh.graphs.differential)
    out = Outcome(sizes={"items": len(inputs["graphs"]) + len(inputs["words"])})
    for g, ref_hash in inputs["graphs"]:
        w = graph_to_word(g)
        dw = leibniz(LinComb.of(w))
        image = word_to_graphs(dw)
        out.attempted += 1
        out.failed += (image != differential(LinComb.of(g))
                       or item_hash(bridge_item_text(g, w, image)) != ref_hash)
        out.samples.append(dw)
    for w in inputs["words"]:
        dw = leibniz(LinComb.of(w))
        out.attempted += 1
        out.failed += word_to_graphs(dw) != differential(word_to_graphs(w))
        out.samples.append(dw)
        out.samples.append(LinComb.of(w))
    return out


def bridge_pieces(gh, inputs, tr, outcome: Outcome) -> tuple[int, int]:
    """Time the parts of graph_to_word and word_to_graphs on the same inputs.

    varphi_inverse runs on every graph; tstar and then package run on every
    word the main pass handed to word_to_graphs, as word_to_graphs does.
    """
    varphi_inverse = tr.wrap("diagrams.varphi_inverse", gh.diagrams.varphi_inverse)
    tstar = tr.wrap("symplectic.tstar", gh.symplectic.tstar)
    package = tr.wrap("diagrams.package", gh.diagrams.package)
    for g, _ in inputs["graphs"]:
        varphi_inverse(g)
    for x in outcome.samples:
        for w, _ in x.items():
            shape = w.degree_shape()
            for mono, _ in tstar(w).items():
                package(gh.diagrams.phi(mono), shape)
    return 0, 0


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    pieces: object = None


WORKLOADS = {
    "stripe-mixed-l2": Workload(stripe_setup, stripe_run, stripe_pieces),
    "lie-orbit": Workload(lie_setup, lie_run),
    "bridge-square": Workload(bridge_setup, bridge_run, bridge_pieces),
}

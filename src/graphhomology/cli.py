"""Batch front door: enumeration, differentials, conversions, homology, verify.

All payloads are JSON with rationals as "p/q" strings; output is deterministic
for a fixed seed (printed in every report header).  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import random
import sys

from . import bialgebra, diagrams, graphs, homotopy, symplectic
from .exactlinalg import LinComb, chain_contraction, homology_dims, rank, rational

__all__ = ["main"]

SUITES = ("d2", "contraction", "bialgebra", "series", "interchange", "commute",
          "lie-diagram")


def _write(config: argparse.Namespace, pieces) -> None:
    """Pieces and a newline to --output or stdout, 8,192 a write (one each: 3x slower)."""
    pieces = iter(pieces)
    with (open(config.output, "w", encoding="utf-8") if config.output
          else contextlib.nullcontext(sys.stdout)) as stream:
        while text := "".join(itertools.islice(pieces, 8192)):
            stream.write(text)
        stream.write("\n")


def _emit(config: argparse.Namespace, payload) -> None:
    _write(config, json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))


def _load_input(config: argparse.Namespace) -> dict:
    if not config.input:
        raise ValueError("--input is required for this command")
    with open(config.input, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- JSON records: graphs, linear combinations of graphs, diagrams -----------

def _require_ints(values, what: str) -> None:
    """Refuse a record whose numbers are not all ints (bools and floats included)."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, not {v!r}")


def _require_json(value, kind, what: str):
    """The record part ``value``, refused unless it is an instance of ``kind``.

    A bool is refused too, though Python counts it as an int: JSON true and
    false are never a coefficient or any other part of a record.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} has the wrong type: {value!r}")
    return value


def _require_fields(rec, what: str, *names: str) -> list:
    """The fields ``names`` of the record ``rec``, refused unless it is a dict
    holding each of them; a null field is present, and its reader refuses it."""
    _require_json(rec, dict, what)
    for name in names:
        if name not in rec:
            raise ValueError(f"{what} has no field {name!r}")
    return [rec[name] for name in names]


def _require_pair(value, what: str) -> tuple:
    """The record part ``value``, a list of two ends, as a tuple."""
    pair = tuple(_require_json(value, list, what))
    if len(pair) != 2:
        raise ValueError(f"{what} must have two ends, not {value!r}")
    return pair


def _require_low_first(pairs, what: str) -> None:
    """Refuse a pair written high end first: graph and diagram records are
    canonical forms, and a single-record command has no coefficient to carry
    the sign such a pair would give."""
    for a, b in pairs:
        if a > b:
            raise ValueError(f"{what} must be written low end first, not {[a, b]}")


def _graph_to_record(g: graphs.Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def _graph_from_record(rec) -> graphs.Graph:
    n, edges = _require_fields(rec, "a graph record", "n", "edges")
    edges = [_require_pair(e, "an edge") for e in _require_json(edges, list, "edges")]
    _require_ints([n, *(v for e in edges for v in e)], "n and edge vertices")
    _require_low_first(edges, "an edge")
    return graphs.graph(n, edges)


def _lincomb_to_records(x: LinComb) -> list[dict]:
    items = sorted(x.items(), key=lambda kv: kv[0])
    return [{"coeff": str(c), "graph": _graph_to_record(g)} for g, c in items]


def _lincomb_from_records(recs) -> LinComb:
    def term(rec):
        coeff, g = _require_fields(rec, "a term record", "coeff", "graph")
        coeff = _require_json(coeff, (int, str), "a coefficient")
        return _graph_from_record(g), rational(coeff)

    return LinComb.sum(map(term, recs))


def _pairs_and_shape(rec, what: str):
    """A monomial or diagram record's pairs and shape, None when absent or null."""
    [pairs] = _require_fields(rec, what, "pairs")
    pairs = [_require_pair(p, "a pair") for p in _require_json(pairs, list, "pairs")]
    shape = rec.get("shape")
    if shape is not None:
        shape = tuple(_require_json(shape, list, "a shape"))
    _require_ints([*(shape or ()), *(s for p in pairs for s in p)],
                  "shape parts and slots")
    return pairs, shape


def _diagram_to_record(g: graphs.Graph) -> dict:
    """A packaged class as its valence shape and canonical pairing."""
    return {"shape": graphs.valences(g),
            "pairs": [list(p) for p in diagrams.varphi_inverse(g)]}


def _diagram_from_record(rec) -> LinComb:
    pairs, shape = _pairs_and_shape(rec, "a diagram record")
    if shape is None:
        raise ValueError("a diagram record needs a shape")
    _require_low_first(pairs, "a pair")
    return diagrams.package(diagrams.chord_diagram(pairs), shape)


# --- commands ----------------------------------------------------------------

def _cmd_enumerate(config: argparse.Namespace):
    gs = graphs.enumerate_graphs(config.vertices, config.edges,
                                 config.min_valence, config.connected)
    # the bytes of _emit on the list of records, encoded one record at a
    # time, so the records are never held all at once
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    records = (("," if i else "") + "\n  "
               + encode(_graph_to_record(g)).replace("\n", "\n  ")
               for i, g in enumerate(gs))
    _write(config, itertools.chain(["["], records, ["\n]" if gs else "]"]))
    return 0


def _parse_graph_payload(payload) -> LinComb:
    if isinstance(payload, list):
        return _lincomb_from_records(payload)
    return LinComb.of(_graph_from_record(payload))


def _cmd_diff(config: argparse.Namespace):
    payload = _load_input(config)
    x = _parse_graph_payload(payload)
    if config.lie:
        classes = x.mapped(graphs.lie_class)
        result = graphs.lie_differential(classes)
        records = _lincomb_to_records(result.map_keys(lambda k: k.rep))
    else:
        records = _lincomb_to_records(graphs.differential(x))
    _emit(config, records)
    return 0


def _cmd_coproduct(config: argparse.Namespace):
    payload = _load_input(config)
    g = _graph_from_record(payload)
    result = bialgebra.cohalf_shuffle(g)
    records = [{"coeff": str(c),
                "left": _graph_to_record(l),
                "right": _graph_to_record(r)}
               for (l, r), c in sorted(result.items(), key=lambda kv: kv[0])]
    _emit(config, records)
    return 0


def _cmd_product(config: argparse.Namespace):
    left, right = _require_fields(_load_input(config), "a product record", "left", "right")
    left, right = _graph_from_record(left), _graph_from_record(right)
    _emit(config, _graph_to_record(graphs.disjoint_union(left, right)))
    return 0


def _word_payload_to_word(payload) -> symplectic.TensorWord:
    if not isinstance(payload, list) or not all(isinstance(f, str) for f in payload):
        raise ValueError(f"a word is a list of factor strings, not {payload!r}")
    return symplectic.word_from_strings(payload)


_STAGES = ("word", "monomial", "diagram", "graph")


def _cmd_convert(config: argparse.Namespace):
    src, dst = config.convert_from, config.convert_to
    if src not in _STAGES or dst not in _STAGES:
        raise ValueError(f"stages must be among {_STAGES}")
    payload = _load_input(config)
    route = (src, dst)
    if route == ("word", "monomial"):
        w = _word_payload_to_word(payload)
        result = symplectic.tstar(w)
        out = [{"coeff": str(c), "monomial": {"pairs": [list(p) for p in m]}}
               for m, c in sorted(result.items(), key=lambda kv: kv[0])]
    elif route == ("monomial", "diagram"):
        pairs, shape = _pairs_and_shape(payload, "a monomial record")
        if not shape:
            raise ValueError("monomial→diagram needs a shape")
        out = [{"coeff": str(c * c2), "diagram": _diagram_to_record(g)}
               for d, c in diagrams.pair_monomial(pairs).items()
               for g, c2 in diagrams.package(d, shape).items()]
    elif route == ("diagram", "graph"):
        out = _lincomb_to_records(_diagram_from_record(payload))
    elif route == ("diagram", "monomial"):
        packaged = _diagram_from_record(payload)
        out = [{"coeff": str(c),
                "monomial": {"pairs": [list(p) for p in diagrams.varphi_inverse(g)]}}
               for g, c in packaged.items()]
    elif route == ("graph", "diagram"):
        g = _graph_from_record(payload)
        out = _diagram_to_record(g)
    elif route == ("monomial", "word"):
        pairs, shape = _pairs_and_shape(payload, "a monomial record")
        if not shape:
            raise ValueError("monomial→word needs a shape")
        out = symplectic.word_to_strings(symplectic.split_S(pairs, shape))
    elif route == ("graph", "word"):
        g = _graph_from_record(payload)
        out = symplectic.word_to_strings(symplectic.graph_to_word(g))
    elif route == ("word", "graph"):
        w = _word_payload_to_word(payload)
        out = _lincomb_to_records(symplectic.word_to_graphs(w))
    else:
        raise ValueError(f"no conversion route {src} -> {dst}")
    _emit(config, out)
    return 0


def _cmd_homology(config: argparse.Namespace):
    if config.polygons:
        if config.loop is not None:
            raise ValueError("--loop builds the core stripe; drop --polygons")
        if config.max_n < 3:
            raise ValueError("need max_n >= 3")
        cx = homotopy.stripe("polygon", 0, config.max_n)
    elif config.loop is not None:
        cx = homotopy.stripe("core", config.loop, config.max_n)
    else:
        raise ValueError("homology needs --loop L or --polygons")
    dims = homology_dims(cx)
    _emit(config, {str(k): {"dim": dim, "reliable": reliable}
                   for k, (dim, reliable) in sorted(dims.items())})
    return 0


def _matrix_terms(name: str, m) -> LinComb:
    """The entries of a matrix as terms keyed (name, row, column)."""
    return LinComb.sum(((name, r, c), val) for (r, c), val in m.entries)


def _suite_items(config: argparse.Namespace):
    """Yield (label, defect) pairs for the selected verification suite; an
    item holds when its defect is zero."""
    rng = random.Random(config.seed)
    if config.suite == "d2":
        for g in _listed_graphs(config):
            val = graphs.differential(graphs.differential(LinComb.of(g)))
            yield repr(g), val
    elif config.suite == "contraction":
        # the mixed graphs with n <= vertices, e <= edges, by loop order; each
        # stripe runs one degree past the checked ones, as in criterion 07
        for loop in range(1, config.edges - 1):
            top = min(config.vertices, config.edges - loop)
            cx = homotopy.stripe("mixed", loop, top + 1)
            con = chain_contraction(cx)
            for k in range(2, top + 1):
                pi, b = con.projection(k), con.homology_dim(k)
                defect = (_matrix_terms("π²-π", pi.compose(pi))
                          - _matrix_terms("π²-π", pi)
                          + _matrix_terms("dπ", cx.d[k].compose(pi))
                          + _matrix_terms("πd", pi.compose(cx.d[k + 1]))
                          + LinComb.of(("rank π-b",), rank(pi) - b))
                yield f"loop {loop} degree {k} b={b}", defect
    elif config.suite == "bialgebra":
        pool = _component_pool(3)
        for g in graphs.products_of(pool, max_components=3):
            yield f"coalgebra {g!r}", bialgebra.check_zinbiel_coalgebra(g)
        singles = [graphs.UNIT] + graphs.products_of(pool, max_components=2)
        for a in singles:
            for b in singles:
                yield f"compat {a!r} | {b!r}", bialgebra.check_compatibility(a, b)
    elif config.suite == "series":
        f = bialgebra.series_f(config.degree)
        g = bialgebra.series_g(config.degree)
        ident = bialgebra.identity_series(config.degree)
        # trees of different shapes do not compare, so the defects are keyed
        # by repr, as LinComb's own repr sorts them
        yield "f∘g = t", (bialgebra.mag_compose(f, g, config.degree) - ident).map_keys(repr)
        yield "g∘f = t", (bialgebra.mag_compose(g, f, config.degree) - ident).map_keys(repr)
    elif config.suite == "interchange":
        for case in range(20):
            w = symplectic.random_split_word(rng)
            n = len(w.factors)
            for p in range(0, n):
                q = n - 1 - p
                yield f"word {case} split ({p},{q})", bialgebra.check_interchange(w, p, q)
    elif config.suite == "commute":
        for g in _listed_graphs(config, min_valence=2):
            w = symplectic.graph_to_word(g)
            lhs = symplectic.word_to_graphs(
                symplectic.leibniz_differential(LinComb.of(w)))
            rhs = graphs.differential(LinComb.of(g))
            yield repr(g), lhs - rhs
    elif config.suite == "lie-diagram":
        for g in _listed_graphs(config):
            lhs = graphs.differential(LinComb.of(g)).mapped(graphs.lie_class)
            rhs = graphs.lie_differential(graphs.lie_class(g))
            yield repr(g), lhs - rhs
    else:
        raise ValueError(f"unknown suite {config.suite}; choose from {SUITES}")


def _component_pool(max_vertices: int):
    pool = []
    for n in range(1, max_vertices + 1):
        pool.extend(graphs.enumerate_graphs(n, 3, min_valence=2, connected_only=True))
    return pool


def _listed_graphs(config: argparse.Namespace, min_valence: int = 0) -> list:
    """The graphs with 1..vertices vertices and at most edges edges.

    Every listing is built, and so sized against ENUMERATE_MAX_GRAPHS,
    before a suite checks its first graph, so an oversized bound is refused
    at once rather than after the smaller vertex counts are checked.
    """
    return [g for n in range(1, config.vertices + 1)
            for g in graphs.enumerate_graphs(n, config.edges, min_valence=min_valence)]


def _cmd_verify(config: argparse.Namespace):
    if min(config.vertices, config.edges, config.degree) < 0:
        raise ValueError("--vertices, --edges and --degree must be non-negative")
    lines = []
    failures = 0
    total = 0
    for label, defect in _suite_items(config):
        total += 1
        if defect.is_zero():
            lines.append(f"OK   {label}")
            continue
        # a FAIL line gives the defect's term count and its smallest term
        failures += 1
        key, coeff = min(defect.items(), key=lambda kv: kv[0])
        lines.append(f"FAIL {label} defect terms={len(defect)} smallest={coeff}*{key}")
    if not total:
        raise ValueError(f"suite {config.suite} has no items within these bounds")
    header = (f"suite={config.suite} seed={config.seed} "
              f"vertices<={config.vertices} edges<={config.edges}")
    body = [header] + sorted(lines)
    if failures:
        body.append(f"{failures} of {total} items fail")
    else:
        body.append(f"all {total} items pass")
    _write(config, ["\n".join(body)])
    return 1 if failures else 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "diff": _cmd_diff,
    "coproduct": _cmd_coproduct,
    "product": _cmd_product,
    "convert": _cmd_convert,
    "homology": _cmd_homology,
    "verify": _cmd_verify,
}


# every option, its default and the commands that read it
_OPTIONS = {
    "--vertices": ({"type": int, "default": 4}, ("enumerate", "verify")),
    "--edges": ({"type": int, "default": 6}, ("enumerate", "verify")),
    "--min-valence": ({"type": int, "dest": "min_valence", "default": 0}, ("enumerate",)),
    "--connected": ({"action": "store_true"}, ("enumerate",)),
    "--lie": ({"action": "store_true"}, ("diff",)),
    "--input": ({}, ("diff", "coproduct", "product", "convert")),
    "--from": ({"dest": "convert_from", "required": True}, ("convert",)),
    "--to": ({"dest": "convert_to", "required": True}, ("convert",)),
    "--loop": ({"type": int}, ("homology",)),
    "--polygons": ({"action": "store_true"}, ("homology",)),
    "--max-n": ({"type": int, "dest": "max_n", "default": 5}, ("homology",)),
    "--suite": ({"choices": SUITES}, ("verify",)),
    "--seed": ({"type": int, "default": 0}, ("verify",)),
    "--degree": ({"type": int, "default": 8}, ("verify",)),
    "--output": ({}, tuple(_COMMANDS)),
}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, taking only its options; the parsed
    namespace holds each of those options, at its default when left out."""
    parser = argparse.ArgumentParser(prog="graphhomology")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flag, (kwargs, commands) in _OPTIONS.items():
            if name in commands:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

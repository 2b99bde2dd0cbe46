"""Record perfbench/reference.json from the current program.

    python3 perfbench/record_reference.py

The references are the outputs of the exact ``Fraction`` code: per-degree
basis dims, nonzeros, ranks and homology of the stripe, and one short hash
per item of lie-orbit and bridge-square.  They do not depend on the seed.
Re-record only when a change of output is intended, and say so.
"""

from __future__ import annotations

import json

from run import BENCH_DIR, import_program
from tracer import NullTracer
from workloads import (bridge_graphs, bridge_item_text, item_hash, lie_graphs, lie_item_text,
                       stripe_observe)


def record(gh) -> dict:
    LinComb = gh.exactlinalg.LinComb
    ref = {}
    rows, complex_ = stripe_observe(gh, NullTracer())
    for k, mat in complex_.d.items():
        if gh.exactlinalg.rank(mat) != rows[str(k)]["rank"]:
            raise SystemExit(f"stripe: rank of d{k} disagrees with homology_dims")
    ref["stripe-mixed-l2"] = {"degrees": rows}
    ref["lie-orbit"] = {"hashes": "".join(
        item_hash(lie_item_text(g, LinComb.of(g).mapped(gh.graphs.lie_class)))
        for g in lie_graphs(gh))}
    hashes = []
    for g in bridge_graphs(gh):
        w = gh.symplectic.graph_to_word(g)
        image = gh.symplectic.word_to_graphs(gh.symplectic.leibniz_differential(LinComb.of(w)))
        hashes.append(item_hash(bridge_item_text(g, w, image)))
    ref["bridge-square"] = {"hashes": "".join(hashes)}
    return ref


if __name__ == "__main__":
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(record(import_program()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")

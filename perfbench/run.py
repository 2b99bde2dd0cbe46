"""Benchmark of graphhomology: one workload, timed, checked, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` next to
this directory.  Set-up (import plus input generation) is repeated
``SETUP_REPS`` times at the start of every round, so that the repetitions
spread over the run, and its median is ``setup_s``.  As many rounds run as
fit in ``--seconds`` (at least one); a round runs one pass of the workload,
which does the work and checks every item against ``reference.json``.
``wall_s`` and ``cpu_s`` are medians over passes.  Everything runs in one
process, so ``peak_rss_mb`` is that process's peak resident memory.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, then a separate pass times
the public pieces hidden inside one public call (``rank`` inside
``homology_dims``, ``varphi_inverse`` and ``package`` inside the word bridge),
and the result carries the per-layer metrics; the spans are written to
``perfbench/traces/``.  See ``workloads.py`` for which layer each workload
loads.

The line before the result is a provenance row: problem sizes, item counts,
seed, git sha (when run in a git checkout), a digest of ``src/``, Python
version, ``nproc``, every pass time, and the time of a fixed pure-Python work
unit measured between passes.  That unit shows how fast the machine was
during the run; it is a diagnostic, not a metric.

Exit status: 0 when every check passed, 1 when any item failed (the result
is still printed), 2 when the program cannot be found or imported (nothing
is printed).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import NullTracer, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROGRAM_MODULES = ("graphs", "homotopy", "exactlinalg", "symplectic", "diagrams")
SETUP_REPS = 4

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

TIMED = ("graphs.enumerate_graphs", "graphs.differential_graph", "homotopy.classify",
         "homotopy.slice_from_bases", "exactlinalg.homology_dims", "graphs.lie_class",
         "graphs.lie_differential", "graphs.differential", "symplectic.graph_to_word",
         "symplectic.word_to_graphs", "symplectic.leibniz_differential", "symplectic.tstar",
         "diagrams.varphi_inverse", "diagrams.package")
DEGREES = range(2, 7)
PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED},
    "graphs.enumerate_graphs.calls": "count",
    "graphs.enumerate_graphs.out": "count",
    "graphs.differential_graph.calls": "count",
    "graphs.differential_graph.terms": "count",
    "homotopy.slice_from_bases.self_s": "s",
    **{f"homotopy.basis.d{k}": "count" for k in range(1, 7)},
    **{f"homotopy.nnz.d{k}": "count" for k in DEGREES},
    **{f"exactlinalg.rank.s.d{k}": "s" for k in DEGREES},
    **{f"exactlinalg.rank.d{k}": "count" for k in DEGREES},
    "graphs.lie_class.calls": "count",
    "graphs.lie_class.zero_frac": "ratio",
    "diagrams.package.calls": "count",
    "diagrams.package.zero_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import the program afresh from src/, so that each set-up pays import."""
    if not (SRC / "graphhomology" / "__init__.py").is_file():
        raise ProgramMissing(f"no graphhomology package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "graphhomology" or m.startswith("graphhomology.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"graphhomology.{name}") for name in PROGRAM_MODULES}
    if not Path(mods["graphs"].__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"graphhomology imported from outside {SRC}")
    return argparse.Namespace(**mods)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def work_unit_ms() -> float:
    """Time of a fixed pure-Python work unit (dict and int arithmetic)."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for k in range(100_000):
        acc[k % 997] = acc.get(k % 997, 0) + k * k
    return (time.perf_counter() - start) * 1e3


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "graphhomology").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def set_up(workload, seed, reference, times):
    """Import the program and build the inputs SETUP_REPS times, timing each."""
    for _ in range(SETUP_REPS):
        gh = inputs = None  # one set of inputs alive at a time, for peak_rss_mb
        gc.collect()
        start = time.perf_counter()
        gh = import_program()
        inputs = workload.setup(gh, seed, reference)
        times.append(time.perf_counter() - start)
    return gh, inputs


def timed_pass(workload, gh, inputs, tr):
    """(outcome, wall s, cpu s, (start ns, end ns)) of one pass."""
    gc.collect()
    cpu0, start = cpu_seconds(), time.perf_counter_ns()
    outcome = workload.run(gh, inputs, tr)
    end, cpu1 = time.perf_counter_ns(), cpu_seconds()
    return outcome, (end - start) / 1e9, cpu1 - cpu0, (start, end)


def layer_metrics(main: Tracer, pieces: Tracer, traced_passes: int, outcome,
                  coverage: float, overhead: float) -> dict[str, float]:
    per_pass = {name: {k: v / traced_passes for k, v in row.items()}
                for name, row in main.summary().items()}
    counters = {k: v / traced_passes for k, v in main.counters.items()}
    spans = {**per_pass, **pieces.summary()}
    counters.update(pieces.counters)

    def stat(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    def frac(name):
        calls = stat(name, "calls")
        return counters.get(name + ".zero", 0) / calls if calls else 0

    values = {f"{name}.s": stat(name) for name in TIMED}
    values.update({
        "graphs.enumerate_graphs.calls": stat("graphs.enumerate_graphs", "calls"),
        "graphs.enumerate_graphs.out": counters.get("graphs.enumerate_graphs.out", 0),
        "graphs.differential_graph.calls": stat("graphs.differential_graph", "calls"),
        "graphs.differential_graph.terms": counters.get("graphs.differential_graph.out", 0),
        "homotopy.slice_from_bases.self_s": stat("homotopy.slice_from_bases", "self_s"),
        "graphs.lie_class.calls": stat("graphs.lie_class", "calls"),
        "graphs.lie_class.zero_frac": frac("graphs.lie_class"),
        "diagrams.package.calls": stat("diagrams.package", "calls"),
        "diagrams.package.zero_frac": frac("diagrams.package"),
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    })
    for k in DEGREES:
        values[f"exactlinalg.rank.s.d{k}"] = stat(f"exactlinalg.rank.d{k}")
    for name in PER_LAYER:
        values.setdefault(name, outcome.sizes.get(name, 0))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_times: list[float] = []
    try:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]
        gh, inputs = set_up(workload, args.seed, reference, setup_times)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    units = [work_unit_ms()]
    plain, traced = [], []
    main_tracer, pieces_tracer = Tracer(), Tracer()
    attempted = failed = 0
    covered = traced_wall = 0.0
    rounds: list[float] = []
    bench_start = time.perf_counter()
    # Start another round only if a typical one still ends by the deadline.
    while not rounds or (time.perf_counter() - bench_start + statistics.median(rounds)
                         <= args.seconds):
        round_start = time.perf_counter()
        outcome = None  # free the last pass's outputs before the next round
        if rounds:
            gh = inputs = None
            gh, inputs = set_up(workload, args.seed, reference, setup_times)
        outcome, wall, cpu, _ = timed_pass(workload, gh, inputs, NullTracer())
        plain.append((wall, cpu))
        attempted, failed = attempted + outcome.attempted, failed + outcome.failed
        units.append(work_unit_ms())
        if args.trace:
            outcome = None
            outcome, wall, _, (lo, hi) = timed_pass(workload, gh, inputs, main_tracer)
            traced.append(wall)
            covered += main_tracer.top_level_s(lo, hi)
            traced_wall += wall
            attempted, failed = attempted + outcome.attempted, failed + outcome.failed
            units.append(work_unit_ms())
        rounds.append(time.perf_counter() - round_start)

    walls = [w for w, _ in plain]
    if args.trace:
        if workload.pieces:
            checked, wrong = workload.pieces(gh, inputs, pieces_tracer, outcome)
            attempted, failed = attempted + checked, failed + wrong
        overhead = statistics.median(traced) / statistics.median(walls) - 1
        metrics = layer_metrics(main_tracer, pieces_tracer, len(traced), outcome,
                                covered / traced_wall, overhead)
        units_of = PER_LAYER
        trace_path = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        main_tracer.spans.extend(pieces_tracer.spans)
        main_tracer.write(trace_path)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c for _, c in plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = END_TO_END

    row = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sizes": outcome.sizes, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "pass_wall_s": walls, "pass_cpu_s": [c for _, c in plain], "traced_wall_s": traced,
        "setup_s": setup_times,
        "work_unit_ms": {"median": statistics.median(units), "min": min(units),
                         "max": max(units), "n": len(units)},
        "git_sha": git_sha(), "src_digest": src_digest(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"row": row}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

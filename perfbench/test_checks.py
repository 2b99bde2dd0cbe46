"""Tests of the benchmark's own checks: each injected fault must count.

    python3 -m pytest perfbench/test_checks.py
"""

import json

import run
from run import import_program
from tracer import NullTracer
from workloads import BRIDGE_WORDS, bridge_run, bridge_setup, lie_run, lie_setup

REFERENCE = json.loads((run.BENCH_DIR / "reference.json").read_text())


def run_main(capsys, workload):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0"])
    *_, last = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(last)


def test_correct_run_reports_no_failure(capsys):
    code, result = run_main(capsys, "stripe-mixed-l2")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_wrong_degree_dim_fails_and_exits_nonzero(capsys, monkeypatch, tmp_path):
    doctored = json.loads(json.dumps(REFERENCE))
    doctored["stripe-mixed-l2"]["degrees"]["5"]["basis"] += 1
    (tmp_path / "reference.json").write_text(json.dumps(doctored))
    monkeypatch.setattr(run, "BENCH_DIR", tmp_path)
    code, result = run_main(capsys, "stripe-mixed-l2")
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_flipped_lie_sign_counts_as_failure(monkeypatch):
    gh = import_program()
    items = lie_setup(gh, 5, REFERENCE["lie-orbit"])[:600]
    assert lie_run(gh, items, NullTracer()).failed == 0
    lie_class = gh.graphs.lie_class
    monkeypatch.setattr(gh.graphs, "lie_class", lambda g: -lie_class(g))
    outcome = lie_run(gh, items, NullTracer())
    assert outcome.attempted == 600
    assert outcome.failed > 0


def test_failing_square_counts_as_failure(monkeypatch):
    gh = import_program()
    inputs = bridge_setup(gh, 7, REFERENCE["bridge-square"])
    inputs["graphs"] = inputs["graphs"][:40]
    assert bridge_run(gh, inputs, NullTracer()).failed == 0
    # Only the seeded words, which have no reference: the square alone must catch it.
    inputs["graphs"] = []
    leibniz = gh.symplectic.leibniz_differential
    monkeypatch.setattr(gh.symplectic, "leibniz_differential", lambda x: -leibniz(x))
    outcome = bridge_run(gh, inputs, NullTracer())
    assert outcome.attempted == BRIDGE_WORDS
    assert outcome.failed > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

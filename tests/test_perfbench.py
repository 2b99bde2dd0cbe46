"""The benchmark in perfbench/ still runs against the program.

`perfbench/run.py` re-imports `graphhomology` at every set-up, so it runs in
a child process; its BENCH_DIR points at a temporary copy of the reference
data, so the trace file of `--trace 1` lands there.  The traced mode is the
one that calls every piece of the program that the benchmark names.  Each
workload checks every item against the hashes in reference.json: lie-orbit
checks `lie_class`'s representative and sign for every graph it relabels,
and stripe-mixed-l2 each degree's basis size, nonzeros, rank and homology.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CHILD = """
import sys
from pathlib import Path
sys.path.insert(0, {perfbench!r})
import run
run.BENCH_DIR = Path({bench_dir!r})
sys.exit(run.main(["--workload", {workload!r}, "--seed", "3",
                   "--seconds", "0", "--trace", "1"]))
"""


@pytest.mark.parametrize("workload", ["bridge-square", "lie-orbit", "stripe-mixed-l2"])
def test_traced_run_has_no_failed_items(workload, tmp_path):
    shutil.copy(PERFBENCH / "reference.json", tmp_path / "reference.json")
    code = CHILD.format(perfbench=str(PERFBENCH), bench_dir=str(tmp_path),
                        workload=workload)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
    assert (tmp_path / "traces").is_dir()

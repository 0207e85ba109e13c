"""The benchmark in bench/ runs traced against this checkout.

Tier-1 does not collect bench/, and bench/test_bench.py runs the workloads
untraced.  This runs one traced tableau pass, which checks unsat verdicts
against the test suite's Depth1Oracle, on a copy of the checkout, so
nothing is written under bench/out/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_tableau_pass_is_correct(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "helpers.py", tmp_path / "tests")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tableau", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True

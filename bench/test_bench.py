"""Tests of the benchmark itself: its references, its failure accounting and
its exit code.  Run with `python -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ROOT / "src" / "paldef" / "fixtures"

# (fixture, world, formula) claims stated in README.md
README_TRUTHS = [
    ("fig1", "middle", "box i p & (p == q) & ~box i (p == q) & ~box i q"),
    ("fig1", "middle", "[p <-> q] box i (p <-> q)"),
    ("fig1", "middle", "~([p <-> q] box i (p == q))"),
    ("fig2", "left", "box i (p == q) & box i (p <-> q) & ~box i p"),
    ("fig2", "right", "box i (p == q) & box i (p <-> q) & ~box i p"),
    ("fig3", "middle", "box a (p == (q & r)) & box b (p == (q & r))"),
    ("fig3", "middle", "box b (p == (~q1 & r)) & ~box a (p == (~q1 & r))"),
    ("fig3", "middle", "box a (p == (q & ~r1)) & ~box b (p == (q & ~r1))"),
    ("fig3", "middle", "[r == ~r1][q == ~q1](box a (p == (~q1 & ~r1)) & box b (p == (~q1 & ~r1)))"),
    ("fig4", "middle", "box i ((p == r) & r & ~q)"),
    ("fig4", "middle", "box j ((p == q) & q & ~r)"),
    ("fig4", "middle", "p & box i p & box j p"),
]


def _fixture(name: str) -> ref.RefModel:
    return ref.RefModel.from_json(json.loads((FIXTURES / f"{name}.json").read_text()))


@pytest.mark.parametrize("name, world, text", README_TRUTHS)
def test_reference_evaluator_agrees_with_readme(name, world, text):
    model = _fixture(name)
    assert model.problems() == []
    assert model.holds(world, ref.parse_form(text))
    assert not model.holds(world, ref.parse_form(f"~({text})"))


def test_reference_evaluator_on_fig1_announcement():
    # the biconditional holds exactly at the worlds the announcement keeps
    model = _fixture("fig1")
    assert model.extension(ref.parse_form("p <-> q")) == {"left", "middle"}


def test_seed_checker_rejects_a_wrong_seed():
    lines = ["a == (b & c)", "b"]
    good = {"def": {"a": "(b & c)", "b": "b", "c": "c"},
            "valuation": {"a": True, "b": True, "c": True}}
    assert ref.check_seed(good, lines) == []
    wrong_valuation = {**good, "valuation": {"a": False, "b": True, "c": True}}
    assert ref.check_seed(wrong_valuation, lines)
    wrong_definition = {**good, "def": {"a": "(c & b)", "b": "b", "c": "c"}}
    assert ref.check_seed(wrong_definition, lines)


def _copy_checkout(dest: Path, with_program: bool = True) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (dest / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "helpers.py", dest / "tests")


def _run(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_wrong_verdict_makes_the_command_exit_nonzero(tmp_path):
    _copy_checkout(tmp_path)
    checker = tmp_path / "src" / "paldef" / "checker.py"
    source = checker.read_text()
    honest = "            if not evaluate(model, world, announced, _checked=True):\n                return True\n"
    assert source.count(honest) == 1
    checker.write_text(source.replace(honest, honest.replace("return True", "return False")))
    done = _run(tmp_path, "model-check")
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 0
    assert "WRONG:" in done.stderr


def test_command_fails_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    done = _run(tmp_path, "tableau")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_rejected_witness_proof_counts_as_failed_and_run_goes_on(tmp_path):
    wl = workloads.DefWitness(1, tmp_path)
    wl.setup(run.import_paldef())
    queries = [q for q in wl.queries(0)
               if (q.family, q.size) in (("circular", 24), ("circular", 3))]
    queries.sort(key=lambda q: -q.size)  # the rejected proofs come first
    problems: list[str] = []
    done = run.run_pass(wl, queries, range(len(queries)), problems)
    assert problems == []
    outcomes = list(zip((q.size for q in queries), done.failures))
    assert all(f == "witness proof rejected" for size, f in outcomes if size == 24)
    assert all(f is None for size, f in outcomes if size == 3)
    layout = [(q.family, q.size, q.largest) for q in queries]
    rejected = sum(1 for size, _ in outcomes if size == 24)
    assert run.end_to_end([1.0], [done], layout)["ok_share"] == \
        pytest.approx(1 - rejected / len(queries))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    totals = [run.Tracer().totals()]
    layers = run.per_layer(totals, [1])
    layers["tracing.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)

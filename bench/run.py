"""paldef benchmark: one seeded workload per invocation, one process, one thread.

    python3 bench/run.py --workload model-check --seed 1 --seconds 30 --trace 0

Set-up imports paldef from ./src and loads the workload's models, several
times; the median is `setup_s`.  Then passes of queries run until the time
budget would be overrun (at least one pass); each pass draws fresh inputs
from the seed.  Each query is timed alone, under a per-query time limit, and
every answer is checked against the independent references in
`reference.py` outside the timed region.  A wrong answer makes the exit code
1; a query that raises, exits with code 2, times out or writes a witness
proof that `prove-verify` rejects is counted as failed and the run goes on.

Times are scaled to a nominal machine speed: see `SpeedProbe`.

With `--trace 1` every round runs one untraced and one traced pass on the
same inputs; the traced pass gives the per-layer metrics (see `spans.py`),
the difference of the two the tracing overhead, and its spans are written to
bench/out/<workload>.spans.csv.  Per-layer times are not scaled; the
overhead is the difference of the scaled pass times.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics, each with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import reference as ref
from spans import OUTCOMES, TARGETS, Tracer
from workloads import SHAPES, WORKLOADS, random_model

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
QUERY_LIMIT_S = 30.0
PROBE_EVERY_S = 0.05
NOMINAL_PROBE_S = 0.001

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "verdict_ms_p50": "ms", "verdict_ms_tail": "ms",
    "largest_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
}


class SpeedProbe:
    """Times a fixed piece of pure-Python work to read the machine's speed.

    On the shared 2-vCPU host this benchmark was built on, the same pass on
    the same inputs drifts by about ±15% over minutes, and longer runs do not
    average the drift out.  Sampling this probe after every 50 ms of query
    time and dividing the pass's times by the probe's time-weighted mean
    (relative to NOMINAL_PROBE_S) cut the spread of pass times by more than
    half.  The probe runs the benchmark's own reference evaluator, never
    paldef, so no change to the program moves it.
    """

    def __init__(self):
        self.model = random_model(random.Random(0), 40)
        self.forms = [ref.parse_form(s.format(p="p", q="q", r="r", i="i", j="j"))
                      for s in SHAPES]
        for _ in range(20):
            self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        model = ref.RefModel.from_json(self.model)
        for f in self.forms:
            model.extension(f)
        return time.perf_counter() - start

    def factor(self) -> float:
        """How many times slower than nominal the machine runs right now."""
        return statistics.median(self.sample() for _ in range(3)) / NOMINAL_PROBE_S


@dataclass
class Pass:
    seconds: list[float]           # per query, divided by `speed`
    failures: list[str | None]     # per query: None, or what went wrong
    speed: float                   # the probe's slowdown factor during the pass


class QueryTimeout(BaseException):
    """Raised by the alarm in the middle of a query that ran too long."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def import_paldef():
    """Import paldef afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "paldef" or n.startswith("paldef.")]:
        del sys.modules[name]
    importlib.import_module("paldef.cli")
    return sys.modules["paldef"]


def run_pass(workload, queries, order, problems: list[str], probe=None, tracer=None) -> Pass:
    """Run every query once, in the given order, timing only the paldef call;
    then check the answers.  Results are kept in the order of `queries`.

    A shuffled order spreads each family over the whole pass, so its times
    sample the same machine speed as the probe does.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    gc.collect()
    clock = time.perf_counter
    seconds = [0.0] * len(queries)
    failures: list[str | None] = [None] * len(queries)
    outcomes = [None] * len(queries)
    since_probe = weighted = covered = 0.0
    for done, index in enumerate(order, start=1):
        q = queries[index]
        if tracer is not None:
            tracer.query = index
        outcome, failure = None, None
        signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
        start = clock()
        try:
            outcome, failure = workload.run(q)
        except QueryTimeout:
            failure = f"no answer within {QUERY_LIMIT_S:.0f} s"
        except Exception as e:  # a raising query is a failed query, not a dead run
            failure = f"raised {type(e).__name__}: {str(e)[:120]}"
        finally:
            elapsed = clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds[index], failures[index], outcomes[index] = elapsed, failure, outcome
        since_probe += elapsed
        if probe is not None and (since_probe >= PROBE_EVERY_S or done == len(order)):
            weighted += since_probe * probe.sample()
            covered += since_probe
            since_probe = 0.0
    speed = weighted / covered / NOMINAL_PROBE_S if covered else 1.0
    for q, outcome in zip(queries, outcomes):
        if outcome is not None:
            problems += workload.check(q, outcome)
    return Pass([s / speed for s in seconds], failures, speed)


def tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least 10 of a pass's samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / per_pass)))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(setup_times, passes: list[Pass], layout) -> dict[str, float]:
    samples = [s for p in passes for s in p.seconds]
    failed = sum(1 for p in passes for f in p.failures if f)
    largest = [k for k, (_, _, is_largest) in enumerate(layout) if is_largest]
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": statistics.median(sum(p.seconds) for p in passes),
        "verdict_ms_p50": 1000 * statistics.median(samples),
        "verdict_ms_tail": 1000 * percentile(samples, tail_percentile(len(layout))),
        "largest_s": statistics.median(sum(p.seconds[k] for k in largest) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (len(samples) - failed) / len(samples),
    }


def growth_rows(workload, passes: list[Pass], layout) -> list[str]:
    groups: dict[tuple[str, int], list[int]] = {}
    for k, (family, size, _) in enumerate(layout):
        groups.setdefault((family, size), []).append(k)
    rows = []
    for (family, size), members in groups.items():
        pass_sum = statistics.median(sum(p.seconds[k] for k in members) for p in passes)
        each = statistics.median(p.seconds[k] for p in passes for k in members)
        rows.append(f"growth {workload.name} | {family} | n={size} | "
                    f"{len(members)} queries | pass sum {1000 * pass_sum:.3f} ms | "
                    f"median query {1000 * each:.3f} ms")
    return rows


def per_layer(tracer_totals, announcement_queries) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each layer's calls, self time and ratios."""
    out: dict[str, tuple[float, str]] = {}
    for layer in TARGETS:
        calls = [totals[layer][0] for totals in tracer_totals]
        out[f"{layer}.calls"] = (statistics.median(calls), "count")
        out[f"{layer}.self_s"] = (statistics.median(t[layer][1] for t in tracer_totals), "s")
        if layer in OUTCOMES:
            ratios = [t[layer][2] / t[layer][0] if t[layer][0] else 0.0 for t in tracer_totals]
            out[f"{layer}.{OUTCOMES[layer][0]}"] = (statistics.median(ratios), "ratio")
    base = statistics.median(announcement_queries)
    per_announcement = [t["checker.eval_global"][0] / n if n else 0.0
                        for t, n in zip(tracer_totals, announcement_queries)]
    out["checker.announcement_queries"] = (base, "count")
    out["checker.eval_global_per_announcement"] = (statistics.median(per_announcement), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    helpers = ROOT / "tests" / "helpers.py"
    if not (src / "paldef" / "__init__.py").is_file() or not helpers.is_file():
        print(f"error: no paldef sources under {src} (and tests/helpers.py) to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.append(str(helpers.parent))

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
        # compile paldef from source on every import, whatever bytecode exists
        sys.pycache_prefix = work_dir
        sys.dont_write_bytecode = True
        return measure(WORKLOADS[args.workload](args.seed, Path(work_dir)), args, out_dir)


def measure(workload, args, out_dir: Path) -> int:
    probe = SpeedProbe()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pd = import_paldef()
        workload.setup(pd)
        setup_times.append((time.perf_counter() - start) / probe.factor())

    tracer = Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    tracer_totals, announcement_queries = [], []
    problems: list[str] = []
    spent = last = 0.0
    layout = []
    while not plain or spent + last <= args.seconds:
        queries = workload.queries(len(plain))
        layout = [(q.family, q.size, q.largest) for q in queries]
        order = list(range(len(queries)))
        random.Random(f"order:{args.seed}:{len(plain)}").shuffle(order)
        plain.append(run_pass(workload, queries, order, problems, probe))
        last = sum(plain[-1].seconds) * plain[-1].speed
        if tracer is not None:
            tracer.reset_totals()
            tracer.install()
            try:
                traced.append(run_pass(workload, queries, order, problems, probe, tracer))
            finally:
                tracer.remove()
            tracer_totals.append(tracer.totals())
            announcement_queries.append(sum(1 for q in queries if "[" in q.text))
            last += sum(traced[-1].seconds) * traced[-1].speed
        spent += last

    failures: dict[str, int] = {}
    for p in plain + traced:
        for (family, size, _), failure in zip(layout, p.failures):
            if failure:
                key = f"{family} n={size}: {failure}"
                failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    attempted = len(layout) * (len(plain) + len(traced))

    e2e = end_to_end(setup_times, plain, layout)
    speeds = [p.speed for p in plain]
    print(f"workload {workload.name} seed {args.seed}: {len(plain)} untraced passes of "
          f"{len(layout)} queries, {len(traced)} traced")
    print(f"times are scaled to the nominal speed: machine ran {statistics.median(speeds):.3f}x "
          f"nominal time (passes {min(speeds):.3f}-{max(speeds):.3f})")
    print(f"verdict_ms_tail is p{tail_percentile(len(layout))} "
          f"over {len(layout) * len(plain)} samples")
    for name, unit in END_TO_END.items():
        print(f"  {name:16} {e2e[name]:.6g} {unit}")
    print(f"  fail_share       {failed / attempted:.6g} ({failed} of {attempted})")
    for key, count in sorted(failures.items()):
        print(f"  failed {count}x  {key}")
    for row in growth_rows(workload, plain, layout):
        print(row)

    if tracer is not None:
        layers = per_layer(tracer_totals, announcement_queries)
        overhead = statistics.median(sum(p.seconds) for p in traced) - e2e["solve_s"]
        layers["tracing.overhead_s"] = (overhead, "s")
        for name, (value, unit) in layers.items():
            print(f"  {name:44} {value:.6g} {unit}")
        spans_path = out_dir / f"{workload.name}.spans.csv"
        tracer.write(spans_path)
        print(f"spans: {tracer.span_count} recorded, {len(tracer.spans)} written to {spans_path}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    for problem in problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

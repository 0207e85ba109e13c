"""Growth curves of unification and of what `paldef defcheck` writes.

    PYTHONPATH=src python tools/growth.py [--repeat N]

linear n = 100 ... 1600, `x_k == (x_{k+1} & r)`: the SAT seed, whose
definitions nest, so its text grows as n squared.  Printed as one batch
(as `defcheck` does) and one definition at a time with `text_of_bool`.

circular n = 3 ... 24, `x_k == (x_{(k+1) mod n} & r)`: the witness proof,
its lines, the bytes and named terms of its file, and the time to print it
(`proof_to_json`), read it back (`proof_from_json`, each term parsed once)
and verify it (`verify_proof`, which rejects chains past 18 steps for the
tautology budget).

unify: `literal_sat` on eight families at doubling n, with its time and
three work counts from a second, instrumented run: the classes the occurs
check expands (calls of `DefState._dependencies` and `_dependents`), the
proof-forest reads (`DefState._edges` lookups) plus the transitivity nodes
built, and the parent hops of `rep` (`DefState._parent` lookups).  The families are
the chain `x_k == (x_{k+1} & r)` asserted in reverse and in a shuffled order;
the union paths `x_k == x_{k+1}` then `x_k == ~y_k`; the unions `x_k == z`
in descending name order; the pair of left-nested conjunctions
`(((a0 & a1) & ...) & a_{n-1}) == (((b0 & b1) & ...) & b_{n-1})`; and three
circular sets, whose witness is extracted and replayed: one lemma per
binding on the cycle, composed innermost first, each substituting the next
lemma's right side into its own binding image.  They are the circular chain
`x_k == (x_{(k+1) mod n} & r)`; `x_k == (y_k & r)` with the unions
`y_k == x_{(k+1) mod n}`, whose cycle runs through a union edge per class;
and the union path `a0 == (b & c)`, `a_k == a_{k+1}` for k < n,
`a_n == (d & e)`, `d == (b & r)`, whose lines are all shallow and whose
witness concludes `b == (b & r)`.  The table times `literal_sat` alone.
`defcheck` also compiles the witness into a proof, whose lemmas conjoin
every premise on the cycle and are hashed recursively, so it exits 2 from
about 500 premises: n = 500 on the chain and the union path, n = 250 on
the circular unions.  A size at which `literal_sat` recurses too deeply
reads RecursionError.

Times are the least of N runs, in milliseconds, on this process's machine.
"""

import argparse
import contextlib
import dataclasses
import json
import random
import time
from collections import Counter
from unittest import mock

from paldef import definitions
from paldef.definitions import literal_sat, parse_literal_lines
from paldef.proof import proof_from_json, proof_to_json, verify_proof, witness_to_proof
from paldef.syntax import text_of_batch, text_of_bool

LINEAR = (100, 200, 400, 800, 1600)
CIRCULAR = (3, 6, 12, 18, 19, 24)


def best_ms(repeat: int, fn):
    """The result of fn and the least time of repeat calls, in ms."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1000)
    return result, min(times)


def literals(lines: list[str]):
    return parse_literal_lines("\n".join(lines))[0]


def linear_rows(repeat: int):
    yield "linear n", "seed chars", "batch ms", "one at a time ms"
    for n in LINEAR:
        result = literal_sat(literals([f"x{k} == (x{k + 1} & r)" for k in range(n)]))
        images = [image for _, image in sorted(result.definitions.items())]
        texts, batch = best_ms(repeat, lambda: text_of_batch(images, sugar=False))
        single_texts, single = best_ms(repeat, lambda: [text_of_bool(f) for f in images])
        assert texts == single_texts
        yield n, sum(map(len, texts)), f"{batch:.2f}", f"{single:.2f}"


def circular_rows(repeat: int):
    yield "circular n", "lines", "bytes", "terms", "print ms", "read ms", "verify ms", "verdict"
    for n in CIRCULAR:
        equivs = literals([f"x{k} == (x{(k + 1) % n} & r)" for k in range(n)])
        proof = witness_to_proof(literal_sat(equivs).witness, equivs)
        text, printing = best_ms(repeat, lambda: proof_to_json(proof))
        parsed, reading = best_ms(repeat, lambda: proof_from_json(text))
        assert parsed == proof
        outcome, verifying = best_ms(repeat, lambda: verify_proof(parsed))
        yield (n, len(proof), len(text.encode()), len(json.loads(text)["terms"]),
               f"{printing:.2f}", f"{reading:.2f}", f"{verifying:.2f}",
               "ok" if outcome.ok else f"line {outcome.line}")


def _chain(n: int) -> list[str]:
    return [f"x{k} == (x{k + 1} & r)" for k in range(n)]


def _conjunction(prefix: str, n: int) -> str:
    return "(" * (n - 1) + f"{prefix}0" + "".join(f" & {prefix}{k})" for k in range(1, n))


UNIFY = {
    "reverse chain": ((100, 200, 400, 800), lambda n: _chain(n)[::-1]),
    "shuffled chain": ((100, 200, 400, 800), lambda n: random.Random(n).sample(_chain(n), n)),
    "union paths": ((250, 500, 1000, 2000), lambda n: [f"x{k} == x{k + 1}" for k in range(n)]
                    + [f"x{k} == ~y{k}" for k in range(n)]),
    "descending unions": ((250, 500, 1000, 2000), lambda n: [
        f"{a} == z" for a in sorted((f"x{k}" for k in range(n)), reverse=True)]),
    "deep conjunction pair": ((500, 1000, 2000, 4000), lambda n: [
        f"{_conjunction('a', n)} == {_conjunction('b', n)}"]),
    "circular chain": ((100, 200, 400, 800), lambda n: [
        f"x{k} == (x{(k + 1) % n} & r)" for k in range(n)]),
    "circular unions": ((100, 200, 400, 800), lambda n: [
        f"x{k} == (y{k} & r)" for k in range(n)] + [f"y{k} == x{(k + 1) % n}" for k in range(n)]),
    "union path": ((100, 200, 400, 800), lambda n: [
        "a0 == (b & c)", *(f"a{k} == a{k + 1}" for k in range(n)), f"a{n} == (d & e)",
        "d == (b & r)"]),
}


def counted_sat(lits) -> Counter:
    """The work counts of literal_sat(lits), as the module docstring lists them."""
    counts: Counter = Counter()

    def calls(key, fn):
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def lookups(key):
        class CountingDict(dict):
            def __getitem__(self, k):
                counts[key] += 1
                return super().__getitem__(k)

            def get(self, k, default=None):
                counts[key] += 1
                return super().get(k, default)
        return CountingDict

    base = definitions.DefState
    fields = {"_edges": lookups("forest"), "_parent": lookups("hops")}

    @dataclasses.dataclass
    class CountingState(base):
        def __post_init__(self):
            for name, kind in fields.items():
                setattr(self, name, kind(getattr(self, name)))

    with contextlib.ExitStack() as patches:
        for name in ("_dependencies", "_dependents"):
            if hasattr(base, name):  # a state without a dependents index counts one way
                patches.enter_context(mock.patch.object(
                    base, name, calls("occurs", getattr(base, name))))
        patches.enter_context(mock.patch.object(
            definitions, "d_trans", calls("forest", definitions.d_trans)))
        patches.enter_context(mock.patch.object(definitions, "DefState", CountingState))
        literal_sat(lits)
    return counts


def unify_rows(repeat: int):
    yield "unify", "n", "ms", "occurs", "forest", "hops", "verdict"
    for family, (sizes, make) in UNIFY.items():
        for n in sizes:
            lits = literals(make(n))
            try:
                result, ms = best_ms(repeat, lambda: literal_sat(lits))
            except RecursionError:
                yield family, n, "-", "-", "-", "-", "RecursionError"
                continue
            counts = counted_sat(lits)
            yield (family, n, f"{ms:.1f}", counts["occurs"], counts["forest"], counts["hops"],
                   "sat" if result.satisfiable else result.reason)


def show(rows) -> None:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing (least is kept)")
    args = parser.parse_args()
    show(unify_rows(args.repeat))
    show(linear_rows(args.repeat))
    show(circular_rows(args.repeat))


if __name__ == "__main__":
    main()

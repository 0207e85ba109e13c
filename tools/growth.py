"""Growth curves of what `paldef defcheck` writes, on two literal families.

    PYTHONPATH=src python tools/growth.py [--repeat N]

linear n = 100 ... 1600, `x_k == (x_{k+1} & r)`: the SAT seed, whose
definitions nest, so its text grows as n squared.  Printed as one batch
(as `defcheck` does) and one definition at a time with `text_of_bool`.

circular n = 3 ... 24, `x_k == (x_{(k+1) mod n} & r)`: the witness proof,
its lines and characters, and the time to print it (`proof_to_json`), parse
it back (`proof_from_json`, one batch), parse its formulas one line at a
time with `parse_form`, and verify it (`verify_proof`, which rejects chains
past 18 steps for the tautology budget).

Times are the least of N runs, in milliseconds, on this process's machine.
"""

import argparse
import json
import time

from paldef.definitions import literal_sat, parse_literal_lines
from paldef.proof import proof_from_json, proof_to_json, verify_proof, witness_to_proof
from paldef.syntax import parse_form, text_of_batch, text_of_bool

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
    yield ("circular n", "lines", "chars", "print ms", "batch parse ms",
           "one at a time ms", "verify ms", "verdict")
    for n in CIRCULAR:
        equivs = literals([f"x{k} == (x{(k + 1) % n} & r)" for k in range(n)])
        proof = witness_to_proof(literal_sat(equivs).witness, equivs)
        text, printing = best_ms(repeat, lambda: proof_to_json(proof))
        parsed, parsing = best_ms(repeat, lambda: proof_from_json(text))
        formulas = [line["formula"] for line in json.loads(text)]
        single, single_parsing = best_ms(repeat, lambda: [parse_form(f) for f in formulas])
        assert single == [line.formula for line in parsed]
        outcome, verifying = best_ms(repeat, lambda: verify_proof(parsed))
        yield (n, len(proof), sum(map(len, formulas)), f"{printing:.2f}", f"{parsing:.2f}",
               f"{single_parsing:.2f}", f"{verifying:.2f}",
               "ok" if outcome.ok else f"line {outcome.line}")


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
    show(linear_rows(args.repeat))
    show(circular_rows(args.repeat))


if __name__ == "__main__":
    main()

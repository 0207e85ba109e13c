"""Command-line front end.

Exit codes are a stable contract across subcommands: 0 for a positive
verdict (true / valid / SAT / OK / verified), 1 for a negative one, 2 for
any error (bad syntax, invalid model, missing file, input nested too deeply).
With --machine the only stdout output is one JSON object {subcommand,
verdict, details}.

Input nested deeper than the recursion limit is "nested too deeply" for
`check`, `sat`, `valid`, `reduce`, and `prove-verify` on a deep `taut` line,
which still recurse.  `parse` and `defcheck` have no depth limit, except
for a deep `!=` literal and the proof of a long cycle, whose lemmas conjoin
as many premises as the cycle has steps and are hashed recursively: a cycle
of n bindings or unions is decided up to about n = 400, an error from 500.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import checker, models, proof
from .definitions import literal_sat, parse_literal_lines
from .syntax import Form, Neg, ParseError, parse_form, text_of_batch, text_of_form

PROG = "paldef"


class _Failure(Exception):
    def __init__(self, message: str):
        self.message = message
        super().__init__(message)


def _read_formula(args) -> Form:
    if args.file:
        text = Path(args.file).read_text(encoding="utf-8")
    else:
        text = args.formula
        if text is None:
            raise _Failure("pass a formula inline or with --file")
    return parse_form(text.strip())


def _model_path(path: str) -> Path:
    candidate = Path(path)
    if candidate.exists():
        return candidate
    stem = candidate.name.removesuffix(".json")
    try:
        return models.fixture_path(stem)
    except ValueError:
        raise _Failure(f"no such model file or fixture: {path}")


def _load_model(path: str) -> models.Model:
    return models.validate(models.load(_model_path(path)))


def _world_of(model: models.Model, args) -> str:
    world = model.actual if args.world is None else args.world
    if world is None:
        raise _Failure("model has no actual world; pass --world")
    return world


# -- subcommands -------------------------------------------------------------

def cmd_parse(args):
    f = _read_formula(args)
    return 0, "ok", {"canonical": text_of_form(f)}, ["ok: " + text_of_form(f)]


def cmd_validate(args):
    try:
        model = models.validate(models.load(_model_path(args.model)))
    except FileNotFoundError:
        raise _Failure(f"no such file: {args.model}")
    except models.InvalidModelError as e:
        report = [str(v) for v in e.violations]
        return 1, "invalid", {"violations": report}, ["INVALID"] + [f"  {r}" for r in report]
    return 0, "valid", {"worlds": len(model.worlds)}, ["OK"]


def cmd_check(args):
    model = _load_model(args.model)
    formula = _read_formula(args)
    world = _world_of(model, args)
    value = checker.evaluate(model, world, formula)
    details = {"world": world, "value": value}
    lines = ["true" if value else "false"]
    if args.verbose:
        table = [(text_of_form(sub), ext)
                 for sub, ext in checker.extension_table(model, formula)]
        details["extensions"] = [{"formula": t, "worlds": ext} for t, ext in table]
        width = max(len(t) for t, _ in table)
        lines += [f"  {t.ljust(width)}  {{{', '.join(ext)}}}" for t, ext in table]
    return (0 if value else 1), ("true" if value else "false"), details, lines


def cmd_reduce(args):
    formula = _read_formula(args)
    reduced = proof.reduce_announcements(formula)
    text = text_of_form(reduced)
    return 0, "ok", {"result": text}, [text]


def cmd_sat(args):
    formula = _read_formula(args)
    outcome = proof.satisfiable(formula)
    if not outcome.satisfiable:
        return 1, "unsat", {}, ["UNSAT"]
    details = {"world": outcome.world, "model": models.premodel_to_dict(outcome.model)}
    return 0, "sat", details, ["SAT", models.dumps(outcome.model).rstrip()]


def cmd_valid(args):
    formula = _read_formula(args)
    reduced = proof.reduce_announcements(formula)
    refutation = proof.satisfiable(Neg(reduced))
    if not refutation.satisfiable:
        return 0, "valid", {}, ["valid"]
    details = {"countermodel": models.premodel_to_dict(refutation.model),
               "world": refutation.world}
    return 1, "not-valid", details, ["not valid",
                                     "countermodel:",
                                     models.dumps(refutation.model).rstrip()]


def cmd_prove_verify(args):
    try:
        lines = proof.proof_from_json(Path(args.proof).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise _Failure(f"no such file: {args.proof}")
    outcome = proof.verify_proof(lines)
    if outcome.ok:
        return 0, "ok", {"lines": len(lines)}, ["ok"]
    return 1, "rejected", {"line": outcome.line, "reason": outcome.reason}, [str(outcome)]


def cmd_defcheck(args):
    try:
        text = Path(args.literals).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise _Failure(f"no such file: {args.literals}")
    equivs, constraints = parse_literal_lines(text)
    result = literal_sat(equivs, constraints)
    if result.satisfiable:
        defs = sorted(result.definitions.items())
        texts = text_of_batch([image for _, image in defs], sugar=False)
        images = [(a, text) for (a, _), text in zip(defs, texts)]
        seed = {
            "def": {a.name: text for a, text in images},
            "valuation": {a.name: v for a, v in sorted(result.valuation.items())},
        }
        lines = ["SAT"] + [f"  {a} := {text}   [{'1' if result.valuation[a] else '0'}]"
                           for a, text in images]
        return 0, "sat", {"seed": seed}, lines
    details: dict = {"reason": result.reason, "detail": result.detail}
    lines = [f"UNSAT ({result.reason})", f"  {result.detail}"]
    if result.witness is not None:
        witness_proof = proof.witness_to_proof(result.witness, equivs)
        out_path = Path(args.witness_out) if args.witness_out else (
            Path(args.literals).with_suffix(".witness.json"))
        out_path.write_text(proof.proof_to_json(witness_proof), encoding="utf-8")
        details["witness_conclusion"] = str(result.witness.conclusion)
        details["witness_proof"] = str(out_path)
        # the witness prints as its description, built only for human output
        lines += [result.witness, f"witness proof written to {out_path}"]
    return 1, "unsat", details, lines


def cmd_fixtures(args):
    paths = {name: str(models.fixture_path(name)) for name in models.fixture_names()}
    return 0, "ok", {"fixtures": paths}, [f"{n}: {p}" for n, p in paths.items()]


# -- driver -------------------------------------------------------------------

@functools.cache  # built on the first call, then shared by every call of main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="public announcement logic with boolean definitions",
    )
    parser.add_argument("--machine", action="store_true",
                        help="emit one JSON object instead of human output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def with_formula(p):
        p.add_argument("formula", nargs="?", help="formula in concrete syntax")
        p.add_argument("--file", help="read the formula from a file instead")

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    with_formula(p)
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("validate", help="check a model file against the model constraints")
    p.add_argument("model")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("model")
    with_formula(p)
    p.add_argument("--world", help="world id (defaults to the model's actual world)")
    p.add_argument("--verbose", action="store_true",
                   help="also print each subformula's extension")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("reduce", help="rewrite announcements away")
    with_formula(p)
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("sat", help="satisfiability of an announcement-free formula")
    with_formula(p)
    p.set_defaults(run=cmd_sat)

    p = sub.add_parser("valid", help="validity via reduction and refutation")
    with_formula(p)
    p.set_defaults(run=cmd_valid)

    p = sub.add_parser("prove-verify", help="verify a proof file")
    p.add_argument("proof")
    p.set_defaults(run=cmd_prove_verify)

    p = sub.add_parser("defcheck", help="decide a file of definitional literals")
    p.add_argument("literals")
    p.add_argument("--witness-out", help="where to write the circularity proof")
    p.set_defaults(run=cmd_defcheck)

    p = sub.add_parser("fixtures", help="print the shipped example model paths")
    p.set_defaults(run=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, verdict, details, lines = args.run(args)
    except (_Failure, ParseError, ValueError, OSError, json.JSONDecodeError,
            RecursionError) as e:
        message = "input is nested too deeply" if isinstance(e, RecursionError) else str(e)
        if args.machine:
            print(json.dumps({"subcommand": args.subcommand, "verdict": "error",
                              "details": {"message": message}}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 2
    if args.machine:
        print(json.dumps({"subcommand": args.subcommand, "verdict": verdict,
                          "details": details}))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: inputs made from a seed, the paldef call
each query makes, and the check of each answer against `reference`.

Every pass draws its inputs from (seed, pass index), renaming atoms and
agents and shuffling lines, so consecutive passes do not repeat each
other's queries verbatim and a result cache across calls gains little that
users would not also gain.  The sizes of each family are fixed; see
README.md for why.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref


@dataclass
class Query:
    family: str
    size: int
    text: str
    largest: bool = False        # the largest size of a growth family
    data: dict = field(default_factory=dict)


def strict_bools(atoms, max_len: int) -> list[str]:
    """Texts of every strict boolean formula up to the length bound.

    Length counts an atom as 1, `~` as 1 and a conjunction's parentheses
    and `&` as 3, as the README's syntactic measures do.
    """
    by_len: list[list[str]] = [[] for _ in range(max_len + 1)]
    if max_len >= 1:
        by_len[1] = list(atoms)
    for n in range(2, max_len + 1):
        by_len[n] = ["~" + f for f in by_len[n - 1]]
        for i in range(1, n - 3):
            j = n - 3 - i
            by_len[n] += [f"({a} & {b})" for a in by_len[i] for b in by_len[j]]
    return [f for row in by_len for f in row]


def _pass_rng(seed: int, pass_index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{pass_index}")


# ---------------------------------------------------------------------------
# model-check

MODEL_SIZES = (40, 80, 160)
DENSITY = 0.35
SHAPES = (
    "box {i} box {j} {p}",
    "box {i} box {j} box {i} ({q} -> {r})",
    "box {i} ({p} == {q})",
    "kd {i} ({p} & {q})",
    "[{p}][box {i} {q}] box {j} ({p} == {q})",
    "[{p} | {q}] kd {j} {r}",
)


def random_model(rng: random.Random, n: int) -> dict:
    """A valid model in the README's file format, with exactly n worlds.

    Each atom is true at exactly half the worlds and each agent relates
    exactly round(0.35 n^2) pairs: announcements and boxes cost about the
    same on every seed, so the figures measure the program, not the draw.
    Per world, up to two atoms get definitions over the self-evident rest,
    drawn among the images that agree with the atom's value there.
    """
    atoms, agents = ["p", "q", "r"], ["i", "j"]
    worlds = [f"w{k}" for k in range(n)]
    truth = {}
    for a in atoms:
        column = [k < n // 2 for k in range(n)]
        rng.shuffle(column)
        truth[a] = column
    entries = []
    for k, w in enumerate(worlds):
        val = {a: truth[a][k] for a in atoms}
        defined = [a for a in atoms if rng.random() < 0.4][:2]
        base = [a for a in atoms if a not in defined]
        defs = {a: a for a in base}
        for a in defined:
            images = [f for f in strict_bools(base, 5)
                      if ref.eval_bool(ref.parse_bool(f), val) == val[a]]
            defs[a] = rng.choice(images)
        entries.append({"id": w, "valuation": val, "def": {a: defs[a] for a in atoms}})
    pairs = round(DENSITY * n * n)
    relations = {agent: sorted([worlds[x // n], worlds[x % n]]
                               for x in rng.sample(range(n * n), pairs))
                 for agent in agents}
    return {"vocabulary": atoms, "agents": agents, "worlds": entries,
            "relations": relations, "actual": worlds[0]}


class ModelCheck:
    """`checker.evaluate` of six query shapes at every world of three models."""

    name = "model-check"

    def __init__(self, seed: int, work_dir: Path):
        rng = random.Random(f"models:{seed}")
        self.model_data = [random_model(rng, n) for n in MODEL_SIZES]
        self.model_texts = [json.dumps(d) for d in self.model_data]
        self.refs = [ref.RefModel.from_json(d) for d in self.model_data]
        self.seed = seed
        self.pd = None
        self.models = []

    def setup(self, pd) -> None:
        self.pd = pd
        self.models = [pd.models.validate(pd.models.loads(t)) for t in self.model_texts]

    def queries(self, pass_index: int) -> list[Query]:
        names = {"p": "p", "q": "q", "r": "r", "i": "i", "j": "j"}
        if pass_index:
            rng = _pass_rng(self.seed, pass_index, "model-check")
            names = dict(zip("pqr", rng.sample("pqr", 3))) | dict(zip("ij", rng.sample("ij", 2)))
        out = []
        for m, n in enumerate(MODEL_SIZES):
            for shape in SHAPES:
                family = shape.format(p="p", q="q", r="r", i="i", j="j")
                text = shape.format(**names)
                for w in self.model_data[m]["worlds"]:
                    out.append(Query(family, n, text, n == MODEL_SIZES[-1],
                                     {"model": m, "world": w["id"]}))
        return out

    def run(self, q: Query):
        pd = self.pd
        return pd.checker.evaluate(self.models[q.data["model"]], q.data["world"],
                                   pd.syntax.parse_form(q.text)), None

    def check(self, q: Query, outcome) -> list[str]:
        expected = self.refs[q.data["model"]].holds(q.data["world"], ref.parse_form(q.text))
        if outcome != expected:
            return [f"{q.text} at {q.data['world']} of the {q.size}-world model: "
                    f"paldef says {outcome}, reference says {expected}"]
        return []


# ---------------------------------------------------------------------------
# def-witness

def _linear(n):
    return [f"x{k} == (x{k + 1} & r)" for k in range(n)]


def _unit(n):
    return [f"x{k}" for k in range(n)]


def _fibonacci(n):
    return [f"x{k} == (x{k + 1} & x{k + 2})" for k in range(n)]


def _circular(n):
    return [f"x{k} == (x{(k + 1) % n} & r)" for k in range(n)]


def _two_cycle(extra):
    return ["x0 == (x1 & r)", "x1 == (x0 & r)"] + [f"y{k} == ~z{k}" for k in range(extra)]


# family -> (lines, expected verdict, {size: variants per pass})
DEF_FAMILIES = {
    "linear": (_linear, "sat", {50: 12, 100: 4, 200: 2, 400: 1}),
    "unit": (_unit, "sat", {4: 24, 8: 24, 16: 1}),
    "fibonacci": (_fibonacci, "sat", {5: 24, 10: 24, 20: 1}),
    "circular": (_circular, "unsat", {3: 24, 6: 12, 12: 1, 24: 2}),
    "two-cycle": (_two_cycle, "unsat", {25: 12}),
}


def _rename(lines: list[str], rng: random.Random) -> list[str]:
    """Rename every atom (prefix per kind, shuffled indices) and shuffle lines."""
    atoms = sorted({t for line in lines for t in ref.tokenize(line) if ref.is_name(t)})
    kinds = sorted({a.rstrip("0123456789") for a in atoms})
    letters = "abcdefghijlmnopqrstuvwyz"
    prefixes = {}
    for kind in kinds:
        while True:
            prefix = "".join(rng.choice(letters) for _ in range(2))
            if prefix not in prefixes.values():
                prefixes[kind] = prefix
                break
    count = len(atoms)
    numbers = rng.sample(range(count), count)
    mapping = {a: f"{prefixes[a.rstrip('0123456789')]}{numbers[k]}" for k, a in enumerate(atoms)}
    out = [" ".join(mapping.get(t, t) for t in ref.tokenize(line)) for line in lines]
    rng.shuffle(out)
    return out


class DefWitness:
    """`paldef --machine defcheck`, then `prove-verify` on any witness proof."""

    name = "def-witness"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.pd = None

    def setup(self, pd) -> None:
        self.pd = pd

    def queries(self, pass_index: int) -> list[Query]:
        rng = _pass_rng(self.seed, pass_index, "def-witness")
        out = []
        for family, (make, expected, variants) in DEF_FAMILIES.items():
            largest = max(variants)
            for size, count in variants.items():
                for v in range(count):
                    lines = _rename(make(size), rng)
                    path = self.work_dir / f"{family}-{size}-{v}.txt"
                    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                    out.append(Query(family, size, "\n".join(lines), size == largest,
                                     {"path": str(path), "expected": expected,
                                      "witness": str(path.with_suffix(".witness.json"))}))
        return out

    def run(self, q: Query):
        cli = self.pd.cli
        witness = Path(q.data["witness"])
        witness.unlink(missing_ok=True)
        replies = io.StringIO()
        with redirect_stdout(replies):
            code = cli.main(["--machine", "defcheck", q.data["path"],
                             "--witness-out", str(witness)])
            verify_code = None
            if code == 1 and witness.exists():
                verify_code = cli.main(["--machine", "prove-verify", str(witness)])
        if code == 2:
            return None, "defcheck exit code 2"
        failure = None
        if verify_code == 1:
            failure = "witness proof rejected"
        elif verify_code == 2:
            failure = "prove-verify exit code 2"
        return replies.getvalue(), failure

    def check(self, q: Query, outcome) -> list[str]:
        reply = json.loads(outcome.splitlines()[0])
        verdict, details = reply["verdict"], reply["details"]
        where = f"{q.family} n={q.size}"
        if verdict != q.data["expected"]:
            return [f"{where}: paldef says {verdict}, expected {q.data['expected']}"]
        if verdict == "sat":
            return [f"{where}: seed {p}" for p in ref.check_seed(details["seed"], q.text.splitlines())]
        if details.get("reason") != "circular":
            return [f"{where}: unsat for reason {details.get('reason')}, expected circular"]
        return []


# ---------------------------------------------------------------------------
# tableau

CLAUSE_SIZES = (2, 4, 8)
ANNOUNCE_SIZES = (1, 2)
RANDOM_COUNT = 2000


def _form_nodes_depth(f) -> tuple[int, int]:
    kind = f[0]
    if kind == "atom":
        return 1, 0
    if kind == "eq":
        return 1 + f[3], 0
    if kind in ("not", "box"):
        nodes, depth = _form_nodes_depth(f[-1])
        return nodes + 1, depth + (kind == "box")
    ln, ld = _form_nodes_depth(f[1])
    rn, rd = _form_nodes_depth(f[2])
    return 1 + ln + rn, max(ld, rd)


def _render(f, names: dict[str, str]) -> str:
    kind = f[0]
    if kind == "atom":
        return names[f[1]]
    if kind == "eq":
        return f"({_render_bool(f[1], names)} == {_render_bool(f[2], names)})"
    if kind == "not":
        return "~" + _render(f[1], names)
    if kind == "box":
        return f"box {names[f[1]]} {_render(f[2], names)}"
    return f"({_render(f[1], names)} & {_render(f[2], names)})"


def _render_bool(toks, names: dict[str, str]) -> str:
    return "".join(" & " if t == "&" else names.get(t, t) for t in toks)


def _bool_nodes(toks) -> int:
    return sum(1 for t in toks if t in ("~", "&") or ref.is_name(t))


class Tableau:
    """`proof.satisfiable` / `proof.valid` on two growth families and a
    random sample of modal-depth-1 formulas.

    The sample is drawn once per seed; each pass swaps p and q at random and
    renames the agent, which keeps every formula's verdict, so the
    Depth1Oracle runs once per distinct formula of the run.
    """

    name = "tableau"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.pd = None
        self.oracle = None
        self._oracle_memo: dict[str, bool] = {}
        self.bools = [(b, _bool_nodes(b)) for b in map(ref.parse_bool, strict_bools(("p", "q"), 5))]
        rng = random.Random(f"tableau-sample:{seed}")
        self.sample = []
        while len(self.sample) < RANDOM_COUNT:
            f = self._random_form(rng, rng.randint(0, 3))
            nodes, depth = _form_nodes_depth(f)
            if nodes <= 12 and depth <= 1:
                self.sample.append(f)

    def setup(self, pd) -> None:
        self.pd = pd

    def _random_form(self, rng: random.Random, depth: int):
        # leaf and inner kinds in the proportions of the test suite's sampler
        kind = rng.choice(["atom", "atom", "equiv"]
                          + ([] if depth <= 0 else ["neg", "and", "box"] * 2))
        if kind == "atom":
            return ("atom", rng.choice("pq"))
        if kind == "equiv":
            (left, ln), (right, rn) = rng.choice(self.bools), rng.choice(self.bools)
            return ("eq", left, right, ln + rn)
        if kind == "neg":
            return ("not", self._random_form(rng, depth - 1))
        if kind == "box":
            return ("box", "i", self._random_form(rng, depth - 1))
        return ("and", self._random_form(rng, depth - 1), self._random_form(rng, depth - 1))

    def queries(self, pass_index: int) -> list[Query]:
        rng = _pass_rng(self.seed, pass_index, "tableau")
        out = []
        for n in CLAUSE_SIZES:
            a, b, agent = rng.sample(["p", "q", "s", "t", "u", "v"], 2) + [rng.choice("ijab")]
            clauses = [f"(box {agent} {a}{k} | ~box {agent} ({a}{k} == {b}{k}))" for k in range(n)]
            text = " & ".join(clauses) + f" & ~box {agent} {a}0"
            out.append(Query("clause", n, text, n == CLAUSE_SIZES[-1], {"mode": "sat"}))
        for n in ANNOUNCE_SIZES:
            a, agent = rng.choice("pqstuv"), rng.choice("ijab")
            text = f"[box {agent} {a}]" * n + f" box {agent} ({a} | ~{a})"
            out.append(Query("announce", n, text, n == ANNOUNCE_SIZES[-1], {"mode": "valid"}))
        canonical = {"p": "p", "q": "q", "i": "i"}
        names = canonical
        if pass_index:
            names = dict(zip("pq", rng.sample("pq", 2))) | {"i": rng.choice("abcdefghijlmnopqrstuvwyz")}
        for f in self.sample:
            out.append(Query("random", 12, _render(f, names), False,
                             {"mode": "sat", "canonical": _render(f, canonical)}))
        return out

    def run(self, q: Query):
        proof = self.pd.proof
        f = self.pd.syntax.parse_form(q.text)
        if q.data["mode"] == "valid":
            return proof.valid(f), None
        return proof.satisfiable(f), None

    def check(self, q: Query, outcome) -> list[str]:
        if q.data["mode"] == "valid":
            return [] if outcome is True else [f"{q.text}: paldef says not valid"]
        if outcome.satisfiable:
            return [f"{q.text}: certificate {p}"
                    for p in ref.check_certificate(outcome.model, outcome.world, q.text)]
        if q.family == "clause":
            return [f"{q.text}: paldef says unsat, the family is satisfiable"]
        if self.oracle is None:
            from helpers import Depth1Oracle  # the test suite's reference, on this paldef
            self.oracle = Depth1Oracle()
        key = q.data["canonical"]
        if key not in self._oracle_memo:
            self._oracle_memo[key] = self.oracle.satisfiable(self._to_paldef(ref.parse_form(key)))
        if self._oracle_memo[key]:
            return [f"{q.text}: paldef says unsat, Depth1Oracle finds a model"]
        return []

    def _to_paldef(self, f):
        s = self.pd.syntax
        kind = f[0]
        if kind == "atom":
            return s.AtomF(s.Atom(f[1]))
        if kind == "not":
            return s.NegF(self._to_paldef(f[1]))
        if kind == "and":
            return s.AndF(self._to_paldef(f[1]), self._to_paldef(f[2]))
        if kind == "box":
            return s.BoxF(f[1], self._to_paldef(f[2]))
        if kind == "eq":
            return s.EquivF(self._bool_to_paldef(f[1]), self._bool_to_paldef(f[2]))
        raise ref.RefError(f"outside the oracle's fragment: {kind}")

    def _bool_to_paldef(self, toks):
        s = self.pd.syntax
        return ref.fold_bool(toks, s.Atom, s.Neg, s.And)


WORKLOADS = {w.name: w for w in (ModelCheck, DefWitness, Tableau)}

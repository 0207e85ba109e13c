"""Reference checkers for the benchmark, written without any paldef code.

Boolean formulas are kept as token tuples in the strict syntax of the README
(`p`, `~P`, `(P & Q)`).  That syntax is closed under substituting a
definition for an atom token, so unravelling is token substitution, and two
boolean formulas are identical exactly when their token tuples are.  Every
boolean routine here is iterative, so chains hundreds of atoms deep need no
recursion.

Modal formulas are tuples: ("atom", p), ("not", f), ("and", f, g),
("or", f, g), ("imp", f, g), ("iff", f, g), ("box", agent, f),
("ann", announced, f), ("eq", P, Q), ("neq", P, Q), ("kd", agent, P),
("kx", agent, P), ("defis", p, P), with P and Q token tuples.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\s*(<->|->|==|!=|:=|[~&|()\[\]]|[a-z][a-z0-9_]*)")
_KEYWORDS = frozenset({"box", "kd", "kx"})


class RefError(ValueError):
    """Malformed input to a reference checker."""


def tokenize(text: str) -> tuple[str, ...]:
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise RefError(f"bad character at {pos} in {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tuple(tokens)


def is_name(tok: str) -> bool:
    return tok[0].isalpha() and tok not in _KEYWORDS


# ---------------------------------------------------------------------------
# Boolean layer on token tuples

def scan_bool(toks, i: int) -> int | None:
    """End index of the strict boolean formula starting at toks[i], or None."""
    need = ["B"]
    while need:
        want = need.pop()
        if i >= len(toks):
            return None
        tok = toks[i]
        if want == "B":
            if tok == "~":
                need.append("B")
            elif tok == "(":
                need += [")", "B", "&", "B"]
            elif not is_name(tok):
                return None
        elif tok != want:
            return None
        i += 1
    return i


def parse_bool(text: str) -> tuple[str, ...]:
    toks = tokenize(text)
    if scan_bool(toks, 0) != len(toks):
        raise RefError(f"not a strict boolean formula: {text!r}")
    return toks


def fold_bool(toks, atom, neg, conj):
    """Evaluate a strict boolean token tuple bottom up, without recursion."""
    ops: list[str] = []
    vals: list = []
    for tok in toks:
        if tok in ("~", "("):
            ops.append(tok)
            continue
        if tok == "&":
            continue
        if tok == ")":
            right, left = vals.pop(), vals.pop()
            ops.pop()
            value = conj(left, right)
        else:
            value = atom(tok)
        while ops and ops[-1] == "~":
            ops.pop()
            value = neg(value)
        vals.append(value)
    return vals[0]


def eval_bool(toks, val: dict[str, bool]) -> bool:
    return fold_bool(toks, val.__getitem__, lambda v: not v, lambda a, b: a and b)


def unravel(toks, defs: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Substitute definitions for atoms until nothing changes."""
    for _ in range(len(defs) + 1):
        out: list[str] = []
        changed = False
        for tok in toks:
            image = defs.get(tok)
            if image is not None and image != (tok,):
                out.extend(image)
                changed = True
            else:
                out.append(tok)
        if not changed:
            return tuple(toks)
        toks = out
    raise RefError("definitions do not reach a fixpoint")


def atoms_of(toks) -> set[str]:
    return {t for t in toks if is_name(t)}


# ---------------------------------------------------------------------------
# Modal layer

class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self, k: int = 0) -> str | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def take(self, want: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise RefError(f"expected {want or 'a token'} at {self.i} in {' '.join(self.toks)}")
        self.i += 1
        return tok

    def bool_(self) -> tuple[str, ...]:
        end = scan_bool(self.toks, self.i)
        if end is None:
            raise RefError(f"expected a boolean formula at {self.i}")
        out = self.toks[self.i:end]
        self.i = end
        return out

    def form(self):
        f = self.imp()
        while self.peek() == "<->":
            self.take()
            f = ("iff", f, self.imp())
        return f

    def imp(self):
        f = self.or_()
        if self.peek() == "->":
            self.take()
            return ("imp", f, self.imp())
        return f

    def or_(self):
        f = self.and_()
        while self.peek() == "|":
            self.take()
            f = ("or", f, self.and_())
        return f

    def and_(self):
        f = self.cmp()
        while self.peek() == "&":
            self.take()
            f = ("and", f, self.cmp())
        return f

    def cmp(self):
        end = scan_bool(self.toks, self.i)
        if end is not None and end < len(self.toks) and self.toks[end] in ("==", "!="):
            left = self.bool_()
            op = self.take()
            return ("eq" if op == "==" else "neq", left, self.bool_())
        tok = self.peek()
        if tok is not None and is_name(tok) and self.peek(1) == ":=":
            self.i += 2
            return ("defis", tok, self.bool_())
        return self.unary()

    def unary(self):
        tok = self.take()
        if tok == "~":
            return ("not", self.unary())
        if tok in ("box", "kd", "kx"):
            agent = self.take()
            if not is_name(agent):
                raise RefError(f"bad agent {agent!r}")
            return (tok, agent, self.unary() if tok == "box" else self.bool_())
        if tok == "[":
            announced = self.form()
            self.take("]")
            return ("ann", announced, self.unary())
        if tok == "(":
            f = self.form()
            self.take(")")
            return f
        if is_name(tok):
            return ("atom", tok)
        raise RefError(f"unexpected {tok!r}")


def parse_form(text: str):
    parser = _Parser(text)
    f = parser.form()
    if parser.i != len(parser.toks):
        raise RefError(f"trailing input in {text!r}")
    return f


class RefModel:
    """A Kripke model with per-world definitions, checked by labelling.

    `extension` computes the set of worlds where a formula holds, bottom up
    and once per (live worlds, subformula); an announcement restricts the
    live worlds to those where the announced formula holds.
    """

    def __init__(self, worlds, val, defs, succ):
        self.worlds = tuple(worlds)
        self.val = val        # world -> atom -> bool
        self.defs = defs      # world -> atom -> token tuple
        self.succ = succ      # agent -> world -> set of worlds
        self._memo: dict = {}
        self._unravelled: dict = {}

    @classmethod
    def from_json(cls, data: dict) -> "RefModel":
        worlds = [entry["id"] for entry in data["worlds"]]
        val = {e["id"]: {a: bool(v) for a, v in e["valuation"].items()} for e in data["worlds"]}
        defs = {e["id"]: {a: parse_bool(t) for a, t in e["def"].items()} for e in data["worlds"]}
        succ = {agent: {w: set() for w in worlds} for agent in data["agents"]}
        for agent, pairs in data.get("relations", {}).items():
            for u, v in pairs:
                succ[agent][u].add(v)
        return cls(worlds, val, defs, succ)

    def problems(self) -> list[str]:
        """Violations of the two model constraints (empty for a model)."""
        found = []
        for w in self.worlds:
            defs, val = self.defs[w], self.val[w]
            for a, image in defs.items():
                for used in atoms_of(image):
                    if defs.get(used) != (used,):
                        found.append(f"{w}: definition of {a} uses non-self-evident {used}")
            if not found:
                for a, image in defs.items():
                    if eval_bool(image, val) != val[a]:
                        found.append(f"{w}: valuation of {a} disagrees with its definition")
        return found

    def unravel_at(self, w: str, P) -> tuple[str, ...]:
        key = (w, P)
        if key not in self._unravelled:
            self._unravelled[key] = unravel(P, self.defs[w])
        return self._unravelled[key]

    def holds(self, world: str, f) -> bool:
        return world in self.extension(f)

    def extension(self, f, live: frozenset | None = None) -> frozenset:
        live = frozenset(self.worlds) if live is None else live
        key = (live, f)
        if key not in self._memo:
            self._memo[key] = frozenset(self._extension(f, live))
        return self._memo[key]

    def _extension(self, f, live: frozenset):
        ext = lambda g: self.extension(g, live)
        kind = f[0]
        if kind == "atom":
            return {w for w in live if self.val[w][f[1]]}
        if kind == "not":
            return live - ext(f[1])
        if kind == "and":
            return ext(f[1]) & ext(f[2])
        if kind == "or":
            return ext(f[1]) | ext(f[2])
        if kind == "imp":
            return (live - ext(f[1])) | ext(f[2])
        if kind == "iff":
            left, right = ext(f[1]), ext(f[2])
            return {w for w in live if (w in left) == (w in right)}
        if kind in ("eq", "neq"):
            same = {w for w in live
                    if self.unravel_at(w, f[1]) == self.unravel_at(w, f[2])}
            return same if kind == "eq" else live - same
        if kind == "box":
            inner = ext(f[2])
            return {w for w in live if self.succ[f[1]][w] & live <= inner}
        if kind in ("kd", "kx"):
            agent, P = f[1], f[2]
            known = {w for w in live
                     if all(self.unravel_at(v, P) == self.unravel_at(w, P)
                            for v in self.succ[agent][w] & live)}
            if kind == "kx":
                return known & ext(("box", agent, ("bool", P)))
            return known
        if kind == "bool":
            return {w for w in live if eval_bool(f[1], self.val[w])}
        if kind == "ann":
            survivors = ext(f[1])
            return (live - survivors) | self.extension(f[2], survivors)
        if kind == "defis":
            return {w for w in live if self.defs[w][f[1]] == f[2]}
        raise RefError(f"unknown formula node {kind!r}")


# ---------------------------------------------------------------------------
# Seeds and certificates produced by paldef

def check_seed(seed: dict, literal_lines) -> list[str]:
    """Check a one-world `defcheck` seed against the literal file it answers.

    The seed must be a model (definitions bottom out in self-evident atoms,
    valuations follow definitions) and make every literal true: `P == Q`
    when both sides unravel to the same formula, `P != Q` when they do not,
    and a boolean line when it evaluates to true.
    """
    defs = {a: parse_bool(t) for a, t in seed["def"].items()}
    val = {a: bool(v) for a, v in seed["valuation"].items()}
    model = RefModel(["w"], {"w": val}, {"w": defs}, {})
    found = model.problems()
    for line in literal_lines:
        toks = tokenize(line)
        missing = atoms_of(toks) - defs.keys()
        if missing:
            found.append(f"{line}: atoms {sorted(missing)} missing from the seed")
            continue
        end = scan_bool(toks, 0)
        if end == len(toks):
            if not eval_bool(toks, val):
                found.append(f"{line}: false under the seed valuation")
            continue
        if end is None or toks[end] not in ("==", "!="):
            raise RefError(f"not a literal: {line!r}")
        left, right = toks[:end], toks[end + 1:]
        same = unravel(left, defs) == unravel(right, defs)
        if same != (toks[end] == "=="):
            found.append(f"{line}: does not hold in the seed")
    return found


def _tokens_of_paldef_bool(P) -> tuple[str, ...]:
    kind = type(P).__name__
    if kind == "Atom":
        return (P.name,)
    if kind == "Neg":
        return ("~",) + _tokens_of_paldef_bool(P.inner)
    if kind == "And":
        return (("(",) + _tokens_of_paldef_bool(P.left) + ("&",)
                + _tokens_of_paldef_bool(P.right) + (")",))
    raise RefError(f"not a boolean formula: {P!r}")


def model_from_paldef(model) -> RefModel:
    """Read a paldef Model's fields into a RefModel (no paldef code runs)."""
    worlds = list(model.worlds)
    val = {w: {a.name: bool(v) for a, v in model.valuation[w].items()} for w in worlds}
    defs = {w: {a.name: _tokens_of_paldef_bool(P) for a, P in model.definitions[w].items()}
            for w in worlds}
    succ = {agent: {w: set() for w in worlds} for agent in model.agents}
    for agent, pairs in model.relations.items():
        for u, v in pairs:
            succ[agent][u].add(v)
    return RefModel(worlds, val, defs, succ)


def check_certificate(model, world: str, text: str) -> list[str]:
    """A tableau SAT certificate must be a model where the formula holds."""
    ref = model_from_paldef(model)
    found = ref.problems()
    if not found and not ref.holds(world, parse_form(text)):
        found.append(f"{text} is false at {world} of its certificate")
    return found

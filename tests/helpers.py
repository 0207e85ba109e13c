"""Shared generators, enumerators, and independent oracles for the test suite.

Everything randomized takes an explicit `random.Random`, so runs are
reproducible from the seeds pinned in the tests.
"""

from __future__ import annotations

import itertools
import random
import re
from functools import lru_cache

from paldef.definitions import literal_sat, parse_literal_lines
from paldef.models import Model, Premodel, eval_bool, unravel, validate
from paldef.proof import proof_to_json, witness_to_proof
from paldef.syntax import (
    And, AnnF, Atom, BoolForm, BoxF, DefIsF, EquivF, Form, KdF, Neg, OccSubst,
    apply_occ_subst, length, occurrences, vocabulary,
)

ATOMS = tuple(Atom(n) for n in ("p", "q", "r", "s"))
AGENTS = ("i", "j")


class Budget:
    """A work counter that fails as soon as it passes its bound."""

    def __init__(self, bound: int, what: str):
        self.bound, self.what, self.used = bound, what, 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.bound:
            raise AssertionError(f"more than {self.bound} {self.what}")

    def counting(self, fn):
        def counted(*args, **kwargs):
            self.spend()
            return fn(*args, **kwargs)
        return counted


# ---------------------------------------------------------------------------
# Boolean-formula enumeration and sampling

@lru_cache(maxsize=None)
def bools_by_length(atoms: tuple[Atom, ...], max_len: int) -> tuple[tuple[BoolForm, ...], ...]:
    """table[l] = all boolean formulas of length exactly l (index 0 unused)."""
    table: list[list[BoolForm]] = [[] for _ in range(max_len + 1)]
    if max_len >= 1:
        table[1] = list(atoms)
    for l in range(2, max_len + 1):
        table[l] = [Neg(f) for f in table[l - 1]]
        for i in range(1, l - 3):
            j = l - 3 - i
            if j >= 1:
                table[l] += [And(a, b) for a in table[i] for b in table[j]]
    return tuple(tuple(row) for row in table)


def all_bools(atoms, max_len: int) -> list[BoolForm]:
    table = bools_by_length(tuple(atoms), max_len)
    return [f for row in table for f in row]


def random_bool(rng, atoms, max_len: int = 5) -> BoolForm:
    return rng.choice(all_bools(tuple(atoms), max_len))


# ---------------------------------------------------------------------------
# Random formulas of the full language

def random_form(rng, atoms, agents, depth: int, *, allow_ann=False,
                allow_kd=False, bool_len=5) -> Form:
    leaf_kinds = ["atom", "atom", "equiv"]
    inner_kinds = ["neg", "and", "box"]
    if allow_ann:
        inner_kinds.append("ann")
    if allow_kd:
        inner_kinds += ["kd", "defis"]
    kind = rng.choice(leaf_kinds if depth <= 0 else leaf_kinds + inner_kinds * 2)

    def sub() -> Form:
        return random_form(rng, atoms, agents, depth - 1, allow_ann=allow_ann,
                           allow_kd=allow_kd, bool_len=bool_len)

    if kind == "atom":
        return rng.choice(atoms)
    if kind == "equiv":
        return EquivF(random_bool(rng, atoms, bool_len), random_bool(rng, atoms, bool_len))
    if kind == "neg":
        return Neg(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "box":
        return BoxF(rng.choice(agents), sub())
    if kind == "ann":
        return AnnF(sub(), sub())
    if kind == "kd":
        return KdF(rng.choice(agents), random_bool(rng, atoms, bool_len))
    return DefIsF(rng.choice(atoms), random_bool(rng, atoms, bool_len))


def bool_nodes(P: BoolForm) -> int:
    match P:
        case Atom():
            return 1
        case Neg(inner):
            return 1 + bool_nodes(inner)
        case And(left, right):
            return 1 + bool_nodes(left) + bool_nodes(right)


def form_nodes(f: Form) -> int:
    """Tree size counting both layers' constructors."""
    match f:
        case Atom():
            return 1
        case EquivF(left, right):
            return 1 + bool_nodes(left) + bool_nodes(right)
        case Neg(inner) | BoxF(_, inner):
            return 1 + form_nodes(inner)
        case And(left, right) | AnnF(left, right):
            return 1 + form_nodes(left) + form_nodes(right)
        case KdF(_, body):
            return 1 + bool_nodes(body)
        case DefIsF(_, body):
            return 2 + bool_nodes(body)
    raise TypeError(f)


def modal_depth(f: Form) -> int:
    match f:
        case Neg(inner):
            return modal_depth(inner)
        case And(left, right) | AnnF(left, right):
            return max(modal_depth(left), modal_depth(right))
        case BoxF(_, inner):
            return 1 + modal_depth(inner)
        case _:
            return 0


# ---------------------------------------------------------------------------
# Random valid models

def _eval_bool_map(P: BoolForm, vals: dict[Atom, bool]) -> bool:
    match P:
        case Atom():
            return vals[P]
        case Neg(inner):
            return not _eval_bool_map(inner, vals)
        case And(left, right):
            return _eval_bool_map(left, vals) and _eval_bool_map(right, vals)


def truth_table_models(constraints, atoms):
    """Every assignment to `atoms` (sorted, False before True, first atom
    most significant) under which all boolean constraints hold, in that
    order: a brute-force truth table."""
    atoms = sorted(atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        vals = dict(zip(atoms, bits))
        if all(_eval_bool_map(c, vals) for c in constraints):
            yield vals


def _skeleton_leaves(f: Form, out: dict) -> None:
    match f:
        case Neg(inner):
            _skeleton_leaves(inner, out)
        case And(left, right):
            _skeleton_leaves(left, out)
            _skeleton_leaves(right, out)
        case _:
            out.setdefault(f, len(out))


def _skeleton_value(f: Form, vals: dict) -> bool:
    match f:
        case Neg(inner):
            return not _skeleton_value(inner, vals)
        case And(left, right):
            return _skeleton_value(left, vals) and _skeleton_value(right, vals)
        case _:
            return vals[f]


def skeleton_leaf_count(f: Form) -> int:
    leaves: dict = {}
    _skeleton_leaves(f, leaves)
    return len(leaves)


def truth_table_tautology(f: Form) -> bool:
    """Truth-table the ~/& skeleton of f, with every other subtree a letter."""
    leaves: dict = {}
    _skeleton_leaves(f, leaves)
    return all(_skeleton_value(f, dict(zip(leaves, bits)))
               for bits in itertools.product((False, True), repeat=len(leaves)))


def random_valid_model(rng, *, max_worlds=4, n_atoms=3, n_agents=2,
                       def_len=5) -> Model:
    """Random model: per world, a set of defined atoms takes images over the
    self-evident rest, and defined valuations follow their definitions."""
    vocab = list(ATOMS[:n_atoms])
    agents = list(AGENTS[:n_agents])
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{k}" for k in range(n))
    valuation: dict[str, dict[Atom, bool]] = {}
    definitions: dict[str, dict[Atom, BoolForm]] = {}
    for w in worlds:
        defined = [a for a in vocab if rng.random() < 0.4]
        if len(defined) == len(vocab):
            defined = defined[:-1]
        base = [a for a in vocab if a not in defined]
        defs: dict[Atom, BoolForm] = {a: a for a in base}
        for a in defined:
            defs[a] = random_bool(rng, base, def_len)
        vals: dict[Atom, bool] = {a: rng.random() < 0.5 for a in base}
        for a in defined:
            vals[a] = _eval_bool_map(defs[a], vals)
        valuation[w] = vals
        definitions[w] = defs
    relations = {
        agent: frozenset(
            (u, v) for u in worlds for v in worlds if rng.random() < 0.35)
        for agent in agents
    }
    return validate(Premodel(
        vocabulary=tuple(vocab),
        agents=tuple(agents),
        worlds=worlds,
        valuation=valuation,
        definitions=definitions,
        relations=relations,
        actual=rng.choice(worlds),
    ))


def model_pool(rng, count: int, **kwargs) -> list[Model]:
    return [random_valid_model(rng, **kwargs) for _ in range(count)]


# ---------------------------------------------------------------------------
# Oracle: simultaneous substitution via one-at-a-time position tracking
#
# Tree paths to untouched leaves survive replacements at other leaves, so
# locating each original target position and recomputing its occurrence
# index in the current tree must agree with the one-pass application.

def _leaf_paths(Q: BoolForm, atom: Atom) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def walk(f: BoolForm, path: tuple[int, ...]) -> None:
        match f:
            case Atom():
                if f == atom:
                    out.append(path)
            case Neg(inner):
                walk(inner, path + (0,))
            case And(left, right):
                walk(left, path + (0,))
                walk(right, path + (1,))

    walk(Q, ())
    return out


def _occ_index_at(Q: BoolForm, path: tuple[int, ...], atom: Atom) -> int:
    count = 0

    def walk(f: BoolForm, p: tuple[int, ...]) -> bool:
        nonlocal count
        match f:
            case Atom():
                if f == atom:
                    count += 1
                return p == path
            case Neg(inner):
                return walk(inner, p + (0,))
            case And(left, right):
                return walk(left, p + (0,)) or walk(right, p + (1,))

    assert walk(Q, ())
    return count


def sequential_simultaneous(subs, Q: BoolForm) -> BoolForm:
    targets = [(_leaf_paths(Q, s.atom)[s.index - 1], s) for s in subs]
    current = Q
    for path, s in targets:
        k = _occ_index_at(current, path, s.atom)
        current = apply_occ_subst(OccSubst(k, s.atom, s.replacement), current)
    return current


# ---------------------------------------------------------------------------
# Oracle: bounded deductive closure of positive equivalence literals
#
# Closure under reflexivity, symmetry, transitivity, pattern decomposition,
# pattern composition (rebuilding conjunctions that occur in the input), and
# atomic occurrence substitution, restricted to formulas up to a length
# bound.  The bound is a test parameter, not a semantic claim.

class BoundedClosure:
    def __init__(self, literals, max_len: int = 21, max_pairs: int = 200_000):
        self.max_len = max_len
        self.max_pairs = max_pairs
        self.by_left: dict[BoolForm, set[BoolForm]] = {}
        self.atom_rules: dict[Atom, set[BoolForm]] = {}
        self.by_right_atom: dict[Atom, set[tuple[BoolForm, BoolForm]]] = {}
        self.contradiction = False
        self.truncated = False
        self.count = 0
        self._work: list[tuple[BoolForm, BoolForm]] = []
        self.input_ands: set[And] = set()
        for left, right in literals:
            for side in (left, right):
                self._collect_ands(side)
        for left, right in literals:
            self._add(left, right)
        self._run()

    def _collect_ands(self, f: BoolForm) -> None:
        match f:
            case And(left, right):
                self.input_ands.add(f)
                self._collect_ands(left)
                self._collect_ands(right)
            case Neg(inner):
                self._collect_ands(inner)

    def _add(self, a: BoolForm, b: BoolForm) -> None:
        if self.contradiction or self.truncated:
            return
        if length(a) > self.max_len or length(b) > self.max_len:
            return
        for x, y in ((a, b), (b, a)):
            if y in self.by_left.get(x, ()):
                continue
            self.by_left.setdefault(x, set()).add(y)
            if isinstance(x, Atom):
                self.atom_rules.setdefault(x, set()).add(y)
            for used in vocabulary(y):
                self.by_right_atom.setdefault(used, set()).add((x, y))
            self._work.append((x, y))
            self.count += 1
            if self.count > self.max_pairs:
                self.truncated = True
                return
        if isinstance(a, Atom) and b != a and a in vocabulary(b):
            self.contradiction = True
        if isinstance(b, Atom) and a != b and b in vocabulary(a):
            self.contradiction = True
        if isinstance(a, Neg) and isinstance(b, And):
            self.contradiction = True
        if isinstance(a, And) and isinstance(b, Neg):
            self.contradiction = True

    def _run(self) -> None:
        while self._work and not self.contradiction and not self.truncated:
            a, b = self._work.pop()
            self._add(a, a)
            self._add(b, b)
            match (a, b):
                case (Neg(x), Neg(y)):
                    self._add(x, y)
                case (And(x1, x2), And(y1, y2)):
                    self._add(x1, y1)
                    self._add(x2, y2)
            # transitivity through the shared middle formula
            for d in list(self.by_left.get(b, ())):
                self._add(a, d)
            # occurrence substitution: (a==b) as a rule over known pairs
            if isinstance(a, Atom):
                for c, d in list(self.by_right_atom.get(a, ())):
                    for k in range(1, occurrences(a, d) + 1):
                        self._add(c, apply_occ_subst(OccSubst(k, a, b), d))
            # ... and as a target of the known atom rules
            for used in vocabulary(b):
                for q in list(self.atom_rules.get(used, ())):
                    for k in range(1, occurrences(used, b) + 1):
                        self._add(a, apply_occ_subst(OccSubst(k, used, q), b))
            # composition, aimed at conjunctions the input mentions
            for t in self.input_ands:
                if t.left == a:
                    for d in list(self.by_left.get(t.right, ())):
                        self._add(t, And(b, d))
                if t.right == a:
                    for c in list(self.by_left.get(t.left, ())):
                        self._add(t, And(c, b))

    def class_of(self, P: BoolForm) -> set[BoolForm]:
        found = set(self.by_left.get(P, ()))
        found.add(P)
        return found


# ---------------------------------------------------------------------------
# Oracle: exhaustive single-world models (definition depth <= 2)

def _trees_to_depth(atoms, depth: int) -> list[BoolForm]:
    pool: list[BoolForm] = list(atoms)
    for _ in range(depth):
        pool = list(atoms) + [Neg(f) for f in pool] + \
            [And(a, b) for a in pool for b in pool]
    seen: dict[BoolForm, None] = {}
    for f in pool:
        seen.setdefault(f)
    return list(seen)


def enumerate_single_world_models(atoms, def_depth: int = 2):
    """All valid one-world premodels over `atoms` with bounded definitions."""
    atoms = tuple(atoms)
    for defined_mask in range(1 << len(atoms)):
        defined = [a for i, a in enumerate(atoms) if defined_mask >> i & 1]
        base = [a for a in atoms if a not in defined]
        if defined and not base:
            continue
        image_pool = _trees_to_depth(base, def_depth) if defined else []
        for images in itertools.product(image_pool, repeat=len(defined)):
            defs = {a: a for a in base} | dict(zip(defined, images))
            for bits in itertools.product((False, True), repeat=len(base)):
                vals = dict(zip(base, bits))
                for a in defined:
                    vals[a] = _eval_bool_map(defs[a], vals)
                yield Premodel(
                    vocabulary=atoms, agents=(), worlds=("w",),
                    valuation={"w": vals}, definitions={"w": defs},
                    relations={}, actual="w",
                )


def single_world_oracle(equivs, constraints, atoms, def_depth: int = 2) -> bool:
    """Exhaustively search one-world models satisfying all the literals."""
    for pm in enumerate_single_world_models(atoms, def_depth):
        ok = True
        for lit in equivs:
            same = unravel(pm, "w", lit.left) == unravel(pm, "w", lit.right)
            if same != lit.positive:
                ok = False
                break
        if ok and all(eval_bool(pm, "w", c) for c in constraints):
            return True
    return False


# ---------------------------------------------------------------------------
# Oracle: depth-one modal satisfiability over all tiny models
#
# For modal depth <= 1 over one agent, any satisfying model with at most 3
# worlds normalizes to a root (optionally its own successor) plus at most two
# successor worlds, and only each world's configuration matters.  World
# configurations are the finitely many constraint-valid (definitions,
# valuation) tables with definition images of length <= 5, so the whole
# bounded model space is searched exactly.

class Depth1Oracle:
    def __init__(self, atoms=(Atom("p"), Atom("q")), image_len: int = 5):
        self.atoms = tuple(atoms)
        self.configs = self._build_configs(image_len)
        self._truth_cache: dict[tuple[int, Form], bool] = {}
        self._mask_cache: dict[Form, int] = {}
        n = len(self.configs)
        self.succ_masks = [0] + [1 << i for i in range(n)] + [
            (1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]

    def _build_configs(self, image_len: int):
        images = all_bools(self.atoms, image_len)
        configs = []
        for defs in itertools.product(images, repeat=len(self.atoms)):
            table = dict(zip(self.atoms, defs))
            ok = all(table[used] == used
                     for image in defs for used in vocabulary(image))
            if not ok:
                continue
            for bits in itertools.product((False, True), repeat=len(self.atoms)):
                vals = dict(zip(self.atoms, bits))
                if all(_eval_bool_map(table[a], vals) == vals[a] for a in self.atoms):
                    configs.append((table, vals))
        return configs

    def _unravel(self, table, P: BoolForm) -> BoolForm:
        match P:
            case Atom():
                return table[P]
            case Neg(inner):
                return Neg(self._unravel(table, inner))
            case And(left, right):
                return And(self._unravel(table, left), self._unravel(table, right))

    def truth0(self, idx: int, f: Form) -> bool:
        key = (idx, f)
        if key in self._truth_cache:
            return self._truth_cache[key]
        table, vals = self.configs[idx]
        match f:
            case Atom():
                value = vals[f]
            case EquivF(left, right):
                value = self._unravel(table, left) == self._unravel(table, right)
            case Neg(inner):
                value = not self.truth0(idx, inner)
            case And(left, right):
                value = self.truth0(idx, left) and self.truth0(idx, right)
            case _:
                raise TypeError(f"not depth-0: {f!r}")
        self._truth_cache[key] = value
        return value

    def mask(self, f: Form) -> int:
        if f not in self._mask_cache:
            m = 0
            for idx in range(len(self.configs)):
                if self.truth0(idx, f):
                    m |= 1 << idx
            self._mask_cache[f] = m
        return self._mask_cache[f]

    def _root_vector(self, f: Form, succ_mask: int, loop: bool, every: int) -> int:
        """Bitmask of root configurations where f holds, for fixed successors."""
        match f:
            case Atom() | EquivF():
                return self.mask(f)
            case Neg(inner):
                return every & ~self._root_vector(inner, succ_mask, loop, every)
            case And(left, right):
                return (self._root_vector(left, succ_mask, loop, every)
                        & self._root_vector(right, succ_mask, loop, every))
            case BoxF(_, inner):
                m = self.mask(inner)
                vec = every if (succ_mask & ~m) == 0 else 0
                return vec & m if loop else vec
        raise TypeError(f"not depth-1: {f!r}")

    def satisfiable(self, f: Form) -> bool:
        every = (1 << len(self.configs)) - 1
        for loop in (False, True):
            for succ_mask in self.succ_masks:
                if self._root_vector(f, succ_mask, loop, every):
                    return True
        return False


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small full-language formulas
#
# Length extends the boolean measure to the modal layer: conjunction and
# equivalence add their parentheses and operator (+3), negation adds 1, and
# `box i` / `kd i` add their two tokens.

def form_length(f: Form) -> int:
    match f:
        case Atom():
            return 1
        case EquivF(left, right):
            return length(left) + length(right) + 3
        case Neg(inner):
            return form_length(inner) + 1
        case And(left, right) | AnnF(left, right):
            return form_length(left) + form_length(right) + 3
        case BoxF(_, inner):
            return form_length(inner) + 2
        case KdF(_, body):
            return length(body) + 2
        case DefIsF(_, body):
            return length(body) + 4
    raise TypeError(f)


def enumerate_depth1_forms(atoms, agent: str, max_len: int) -> list[Form]:
    """All announcement-free forms with modal depth <= 1 up to the length bound."""
    atoms = tuple(atoms)
    bools = bools_by_length(atoms, max(1, max_len - 4))

    def build(box_source: list[list[Form]] | None) -> list[list[Form]]:
        table: list[list[Form]] = [[] for _ in range(max_len + 1)]
        if max_len >= 1:
            table[1] = list(atoms)
        for l in range(2, max_len + 1):
            row = [Neg(f) for f in table[l - 1]]
            for i in range(1, l - 3):
                j = l - 3 - i
                row += [And(a, b) for a in table[i] for b in table[j]]
                if i < len(bools) and j < len(bools):
                    row += [EquivF(a, b) for a in bools[i] for b in bools[j]]
            if box_source is not None and l - 2 >= 1:
                row += [BoxF(agent, f) for f in box_source[l - 2]]
            table[l] = row
        return table

    depth0 = build(None)
    depth1 = build(depth0)
    return [f for row in depth1 for f in row]


# ---------------------------------------------------------------------------
# The literal sets whose witnesses and proofs TestWitnessDigest pins

def _digest_bool(rng, size, names="abcde"):
    if size <= 1 or rng.random() < 0.25:
        return rng.choice(names)
    if rng.random() < 0.35:
        return "~" + _digest_bool(rng, size - 1, names)
    k = rng.randint(1, size - 1)
    return f"({_digest_bool(rng, k, names)} & {_digest_bool(rng, size - k, names)})"


def witness_digest_corpus():
    """1,500 seeded literal sets (about 30% of lines atom-to-atom unions), the
    second-occurrence example under every renaming and line order, the
    circular chains n = 2..24 and a 2-cycle with 25 unrelated definitions."""
    rng = random.Random(2024)
    for _ in range(1500):
        yield [f"{rng.choice('abcde')} == "
               + (rng.choice("abcde") if rng.random() < 0.3
                  else _digest_bool(rng, rng.randint(2, 6)))
               for _ in range(rng.randint(2, 6))]
    # random sets almost never substitute at a later occurrence; these do
    template = ["c == ~(d & a)", "a == ~d", "a == ~(c & b)"]
    for names in itertools.permutations("abcd"):
        renaming = str.maketrans("abcd", "".join(names))
        for lines in itertools.permutations(template):
            yield [line.translate(renaming) for line in lines]
    for n in range(2, 25):
        yield [f"x{k} == (x{(k + 1) % n} & r)" for k in range(n)]
    yield ["x0 == (x1 & r)", "x1 == (x0 & r)"] + [f"y{k} == ~z{k}" for k in range(25)]


def seed_digest_corpus():
    """Every set of witness_digest_corpus(); 300 seeded union-heavy sets of
    20-60 atoms, named in shuffled order so that class representatives
    change often; and the five benchmark families, each in its own, the
    reversed and a shuffled line order."""
    yield from witness_digest_corpus()
    rng = random.Random(2026)
    for _ in range(300):
        n = rng.randint(20, 60)
        names = [f"{rng.choice('abcdefgh')}{k}" for k in rng.sample(range(100), n)]
        # unions stay within one of three levels, and images are
        # conjunctions of literals over a fourth, so most sets unify
        levels = [names[k::4] for k in range(4)]
        lines = []
        for _ in range(n):
            level = rng.randrange(3)
            x = rng.choice(levels[level])
            roll = rng.random()
            if roll < 0.85:
                lines.append(f"{x} == {rng.choice(levels[level])}")
            else:
                left, right = (rng.choice(("", "~")) + rng.choice(levels[3]) for _ in "lr")
                op = "==" if roll < 0.95 else "!="
                lines.append(f"{x} {op} ({left} & {right})")
        yield lines
    families = [
        [f"x{k} == (x{k + 1} & r)" for k in range(200)],
        [f"x{k}" for k in range(8)],
        [f"x{k} == (x{k + 1} & x{k + 2})" for k in range(20)],
        [f"x{k} == (x{(k + 1) % 12} & r)" for k in range(12)],
        ["x0 == (x1 & r)", "x1 == (x0 & r)"] + [f"y{k} == ~z{k}" for k in range(25)],
    ]
    for lines in families:
        shuffled = list(lines)
        rng.shuffle(shuffled)
        yield from (lines, lines[::-1], shuffled)


@lru_cache(maxsize=None)
def witness_proof_files() -> tuple[str, ...]:
    """The proof file of each circular set of witness_digest_corpus, which
    refutes the premises its witness uses: 1,234 files."""
    files = []
    for lines in witness_digest_corpus():
        equivs, _ = parse_literal_lines("\n".join(lines))
        res = literal_sat(equivs)
        if res.witness is not None:
            files.append(proof_to_json(witness_to_proof(res.witness, equivs)))
    return tuple(files)


def written_out(text: str, terms) -> str:
    """A text of a proof file with each `$k` replaced by the k-th of terms,
    itself written out: the text the list-shape file would hold."""
    full: list[str] = []
    for term in terms:
        full.append(re.sub(r"\$(\d+)", lambda m: full[int(m[1]) - 1], term))
    return re.sub(r"\$(\d+)", lambda m: full[int(m[1]) - 1], text)

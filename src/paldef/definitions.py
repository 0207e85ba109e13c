"""Decision procedures for equivalence-by-definition.

Equivalences between boolean formulas are decided by syntactic unification:
atoms act as variables, `~` and `&` as constructors.  A ``DefState`` holds a
union-find partition of atoms (representative = alphabetically least) plus at
most one binding image per class; each union edge and binding keeps its
justification and the sequence number of the event that recorded it.  The
pattern axioms of the logic are exactly the decomposition and clash rules of
unification; the occurs check realises non-circularity, and on failure a
``CircularWitness`` is extracted from the recorded justifications: a
substitution chain that derives an explicitly circular equivalence from the
asserted literals.

States are values: `assert_equiv` returns a new state and never mutates the
receiver, so distinct states may be used concurrently.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field

from .syntax import (
    And, Atom, BoolForm, Neg, EquivF, OccSubst, apply_occ_subst, is_circular,
    leaves, length, lex_key, parse_form, postorder, substitute, text_of_bool,
    vocabulary,
)
from .models import truth

__all__ = [
    "EquivLiteral", "DefState", "CircularWitness", "WitnessStep",
    "PatternClash", "CircularityDetected",
    "DInput", "DSym", "DNegParts", "DAndParts", "DTrans",
    "merge", "merge_substitution", "pick",
    "literal_sat", "SatCheck", "parse_literal_lines",
]


@dataclass(frozen=True)
class EquivLiteral:
    """A (dis)equivalence between boolean formulas: `left == right` or `!=`."""

    positive: bool
    left: BoolForm
    right: BoolForm

    def __str__(self) -> str:
        op = "==" if self.positive else "!="
        return f"{text_of_bool(self.left)} {op} {text_of_bool(self.right)}"


# ---------------------------------------------------------------------------
# Derivations: how a literal follows from the asserted inputs.  Each node
# carries the literal it derives, so replay and proof generation never have to
# recompute it.

@dataclass(frozen=True)
class DInput:
    left: BoolForm
    right: BoolForm


@dataclass(frozen=True)
class DSym:
    left: BoolForm
    right: BoolForm
    of: "Derivation"


@dataclass(frozen=True)
class DNegParts:
    """(l == r) from (~l == ~r)."""

    left: BoolForm
    right: BoolForm
    of: "Derivation"


@dataclass(frozen=True)
class DAndParts:
    """One coordinate of ((a & b) == (c & d))."""

    left: BoolForm
    right: BoolForm
    of: "Derivation"
    side: int


@dataclass(frozen=True)
class DTrans:
    left: BoolForm
    right: BoolForm
    first: "Derivation"
    second: "Derivation"


Derivation = DInput | DSym | DNegParts | DAndParts | DTrans


def d_sym(d: Derivation) -> Derivation:
    if isinstance(d, DSym):
        return d.of
    return DSym(d.right, d.left, d)


def d_trans(first: Derivation, second: Derivation) -> Derivation:
    if first.right != second.left:
        raise ValueError("transitivity endpoints do not meet")
    return DTrans(first.left, second.right, first, second)


class PatternClash(ValueError):
    """A negation met a conjunction while decomposing an equivalence."""

    def __init__(self, left: BoolForm, right: BoolForm):
        self.left = left
        self.right = right
        super().__init__(
            f"pattern mismatch: {text_of_bool(left)} cannot equal {text_of_bool(right)}"
        )


class CircularityDetected(ValueError):
    """The asserted equivalences entail a circular formula."""

    def __init__(self, witness: "CircularWitness"):
        self.witness = witness
        super().__init__(f"circular consequence: {witness.conclusion}")


@dataclass(frozen=True)
class WitnessStep:
    premise: Derivation
    subst: OccSubst


@dataclass(frozen=True)
class CircularWitness:
    """A replayable derivation of a circular equivalence.

    Starting from the base literal, each step rewrites one atom occurrence on
    the right-hand side using an equivalence derived from the inputs; the
    final literal has its left-hand atom occurring properly inside its
    right-hand side.
    """

    base: Derivation
    steps: tuple[WitnessStep, ...]
    conclusion: EquivLiteral

    def replay(self) -> EquivLiteral:
        """Re-run the substitution chain; the result must equal conclusion."""
        current = self.base.right
        for step in self.steps:
            if step.subst.atom != step.premise.left:
                raise ValueError("witness step substitutes a different atom than its premise")
            if step.subst.replacement != step.premise.right:
                raise ValueError("witness step replacement differs from its premise")
            current = apply_occ_subst(step.subst, current)
        lit = EquivLiteral(True, self.base.left, current)
        if lit != self.conclusion:
            raise ValueError(f"witness replays to {lit}, not {self.conclusion}")
        if not is_circular(lit.left, lit.right):
            raise ValueError(f"witness conclusion {lit} is not circular")
        return lit

    def inputs(self) -> set[DInput]:
        """The input literals that the base and the step premises rest on."""
        found: set[DInput] = set()
        seen: set[int] = set()
        todo: list[Derivation] = [self.base] + [step.premise for step in self.steps]
        while todo:
            d = todo.pop()
            if id(d) in seen:
                continue
            seen.add(id(d))
            match d:
                case DInput():
                    found.add(d)
                case DSym(of=of) | DNegParts(of=of) | DAndParts(of=of):
                    todo.append(of)
                case DTrans(first=first, second=second):
                    todo += [first, second]
        return found

    def describe(self) -> str:
        lines = [f"start  {text_of_bool(self.base.left)} == {text_of_bool(self.base.right)}"]
        current = self.base.right
        for step in self.steps:
            current = apply_occ_subst(step.subst, current)
            lines.append(
                f"  {step.subst}  (using {text_of_bool(step.premise.left)} == "
                f"{text_of_bool(step.premise.right)})"
            )
            lines.append(f"       {text_of_bool(self.base.left)} == {text_of_bool(current)}")
        lines.append(f"conclusion {self.conclusion} is circular")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# merge: combine two unifiable formulas into their common refinement

def merge(P: BoolForm, Q: BoolForm) -> BoolForm | None:
    """Componentwise combination of P and Q; None on constructor clash.

    Atom against atom keeps the alphabetically smaller one; atom against a
    compound keeps the compound; negations and conjunctions combine their
    parts; a negation against a conjunction is undefined.
    """
    match (P, Q):
        case (Atom(), Atom()):
            return P if P.name < Q.name else Q
        case (Atom(), _):
            return Q
        case (_, Atom()):
            return P
        case (Neg(a), Neg(b)):
            inner = merge(a, b)
            return None if inner is None else Neg(inner)
        case (And(a, b), And(c, d)):
            left = merge(a, c)
            right = merge(b, d)
            if left is None or right is None:
                return None
            return And(left, right)
    return None


def merge_substitution(P: BoolForm, Q: BoolForm) -> list[OccSubst]:
    """Occurrence substitutions turning P into merge(P, Q), applied at once.

    Each produced substitution replaces an atom of P by the aligned subterm
    of Q (or by an alphabetically smaller atom), so its premise is an
    equivalence that holds whenever P and Q do.  Undefined merges raise.
    """
    if merge(P, Q) is None:
        raise ValueError("merge(P, Q) is undefined")
    counts: Counter[Atom] = Counter()
    subs: list[OccSubst] = []

    def walk(a: BoolForm, b: BoolForm) -> None:
        match (a, b):
            case (Atom(), _):
                counts[a] += 1
                replace_by = None
                if isinstance(b, Atom):
                    if b.name < a.name:
                        replace_by = b
                else:
                    replace_by = b
                if replace_by is not None:
                    subs.append(OccSubst(counts[a], a, replace_by))
            case (Neg(x), Neg(y)):
                walk(x, y)
            case (And(x1, x2), And(y1, y2)):
                walk(x1, y1)
                walk(x2, y2)
            case (_, Atom()):
                # compound side wins; its leaves still advance the counters
                counts.update(leaves(a))
    walk(P, Q)
    return subs


def pick(X) -> BoolForm:
    """Canonical element of a finite set: longest, ties broken lex-first."""
    items = list(X)
    if not items:
        raise ValueError("pick of an empty set")
    longest = max(length(P) for P in items)
    return min((P for P in items if length(P) == longest), key=lex_key)


# ---------------------------------------------------------------------------
# DefState

@dataclass(frozen=True)
class _Binding:
    owner: Atom
    image: BoolForm
    just: Derivation
    seq: int


@dataclass
class DefState:
    """Unification state over atoms-as-variables; treat as an immutable value.

    All mutation happens on private copies, in assert_equiv and on the state
    literal_sat builds for one call; resolve only fills a cache.
    """

    _parent: dict[Atom, Atom] = field(default_factory=dict)
    _bindings: dict[Atom, _Binding] = field(default_factory=dict)
    _edges: dict[Atom, list[tuple[Atom, Derivation, int]]] = field(default_factory=dict)
    _events: int = 0  # union and bind events recorded so far
    # resolved image per class representative, filled lazily by resolve; a
    # state never changes after assert_equiv returns it, and literal_sat
    # resolves only after its last assertion, so entries stay valid
    _resolved: dict[Atom, BoolForm] = field(default_factory=dict, compare=False, repr=False)

    # -- structure ----------------------------------------------------------

    def rep(self, a: Atom) -> Atom:
        while a in self._parent:
            a = self._parent[a]
        return a

    def bindings(self) -> dict[Atom, BoolForm]:
        """Current binding map, keyed by class representative."""
        return {rep: b.image for rep, b in self._bindings.items()}

    def _copy(self) -> "DefState":
        return DefState(
            dict(self._parent),
            dict(self._bindings),
            {a: list(edges) for a, edges in self._edges.items()},
            self._events,
        )

    # -- assertion ----------------------------------------------------------

    def assert_equiv(self, left: BoolForm, right: BoolForm) -> "DefState":
        """Return a state additionally satisfying `left == right`.

        Raises PatternClash on a negation/conjunction mismatch and
        CircularityDetected (with witness) when the occurs check fails.
        """
        new = self._copy()
        new._consume([(left, right, DInput(left, right))])
        return new

    def _consume(self, pairs: list[tuple[BoolForm, BoolForm, Derivation]]) -> None:
        queue = list(pairs)
        while queue:
            a, b, just = queue.pop(0)
            if a == b:
                continue
            match (a, b):
                case (Atom(), Atom()):
                    queue[:0] = self._union(a, b, just)
                case (Atom(), _):
                    queue[:0] = self._bind(a, b, just)
                case (_, Atom()):
                    queue[:0] = self._bind(b, a, d_sym(just))
                case (Neg(x), Neg(y)):
                    queue.insert(0, (x, y, DNegParts(x, y, just)))
                case (And(x1, x2), And(y1, y2)):
                    queue[:0] = [
                        (x1, y1, DAndParts(x1, y1, just, 0)),
                        (x2, y2, DAndParts(x2, y2, just, 1)),
                    ]
                case _:
                    if isinstance(a, Neg):
                        raise PatternClash(a, b)
                    raise PatternClash(b, a)

    def _union(self, a: Atom, b: Atom, just: Derivation):
        ra, rb = self.rep(a), self.rep(b)
        if ra == rb:
            return []
        seq = self._events
        self._events += 1
        self._edges.setdefault(a, []).append((b, just, seq))
        self._edges.setdefault(b, []).append((a, d_sym(just), seq))
        keep, lose = (ra, rb) if ra.name < rb.name else (rb, ra)
        self._parent[lose] = keep
        pending = []
        lost_binding = self._bindings.pop(lose, None)
        if lost_binding is not None:
            kept_binding = self._bindings.get(keep)
            if kept_binding is None:
                self._bindings[keep] = lost_binding
            else:
                first, second = sorted((kept_binding, lost_binding), key=lambda x: x.seq)
                self._bindings[keep] = first
                pending.append(self._image_pair(first, second))
        self._occurs_check(keep)
        return pending

    def _bind(self, a: Atom, image: BoolForm, just: Derivation):
        r = self.rep(a)
        existing = self._bindings.get(r)
        if existing is not None:
            candidate = _Binding(a, image, just, self._events)
            return [self._image_pair(existing, candidate)]
        self._bindings[r] = _Binding(a, image, just, self._events)
        self._events += 1
        self._occurs_check(r)
        return []

    def _image_pair(self, first: _Binding, second: _Binding):
        """Pending pair equating two images asserted for the same class."""
        d = d_sym(first.just)  # image1 == owner1
        path = [just for _, _, just, _ in self._path_edges(first.owner, second.owner)]
        if path:
            d = d_trans(d, functools.reduce(d_trans, path))  # ... == owner2
        d = d_trans(d, second.just)  # ... == image2
        return (first.image, second.image, d)

    def _path_edges(self, x: Atom, y: Atom) -> list[tuple[Atom, Atom, Derivation, int]]:
        """Union edges along the path x .. y as (from, to, just-for(from==to), seq).

        Union edges only join different classes, so they form a forest and
        the path is unique.
        """
        if x == y:
            return []
        prev: dict[Atom, tuple[Atom, Derivation, int]] = {x: (x, None, -1)}
        frontier = [x]
        while frontier:
            u = frontier.pop(0)
            for v, just, seq in self._edges.get(u, []):
                if v in prev:
                    continue
                prev[v] = (u, just, seq)
                if v == y:
                    frontier = []
                    break
                frontier.append(v)
        if y not in prev:
            raise ValueError(f"no union path between {x} and {y}")
        edges = []
        node = y
        while node != x:
            u, just, seq = prev[node]
            edges.append((u, node, just, seq))
            node = u
        edges.reverse()
        return edges

    # -- occurs check and witness extraction ---------------------------------

    def _occurs_check(self, changed: Atom) -> None:
        """Raise CircularityDetected if class `changed` now depends on itself.

        The state had no cycle before the event that changed this class, so
        every new cycle passes through it.  The depth-first search visits
        dependencies in name order, which fixes the cycle it reports.
        """
        if changed not in self._bindings:
            return
        seen = {changed}
        path = [changed]
        branches = [iter(self._dependencies(changed))]
        while branches:
            for nxt in branches[-1]:
                if nxt == changed:
                    raise CircularityDetected(self._extract_witness(path))
                if nxt not in seen and nxt in self._bindings:
                    seen.add(nxt)
                    path.append(nxt)
                    branches.append(iter(self._dependencies(nxt)))
                    break
            else:
                path.pop()
                branches.pop()

    def _dependencies(self, r: Atom) -> list[Atom]:
        """Classes whose atoms occur in the binding image of class r, by name."""
        targets = {self.rep(a) for a in vocabulary(self._bindings[r].image)}
        return sorted(targets, key=lambda a: a.name)

    def _extract_witness(self, cycle: list[Atom]) -> CircularWitness:
        """Build a replayable circular derivation from a class-level cycle.

        The derivation starts at the earliest recorded event (a binding or a
        union edge) lying on the cycle, so it does not depend on where the
        cycle list starts, and walks the cycle once, substituting binding
        images (and union edges as atom renamings) until the start atom
        reappears inside the right-hand side.

        Positions in the right-hand side S are leaf indices into `leaves(S)`.
        Substituting an image at leaf k puts the image's leaf j at k + j; a
        renaming keeps k.
        """
        def first_leaf_of(atoms: list[Atom], cls: Atom) -> int | None:
            return next((k for k, a in enumerate(atoms) if self.rep(a) == cls), None)

        m = len(cycle)
        binds = [self._bindings[c] for c in cycle]
        entries = []  # leaf of image i holding the leftmost atom of class cycle[i+1]
        paths = []    # union edges from that atom to the next owner
        for i in range(m):
            atoms = leaves(binds[i].image)
            k = first_leaf_of(atoms, cycle[(i + 1) % m])
            entries.append(k)
            paths.append(self._path_edges(atoms[k], binds[(i + 1) % m].owner))

        candidates = [("bind", i, binds[i].seq) for i in range(m)]
        for i in range(m):
            for j, (_, _, _, seq) in enumerate(paths[i]):
                candidates.append(("edge", (i, j), seq))
        kind, where, _ = min(candidates, key=lambda c: c[2])

        steps: list[WitnessStep] = []

        def substitute(S: BoolForm, pos: int, premise: Derivation) -> BoolForm:
            atoms = leaves(S)
            sub = OccSubst(atoms[:pos + 1].count(atoms[pos]), premise.left, premise.right)
            steps.append(WitnessStep(premise, sub))
            return apply_occ_subst(sub, S)

        if kind == "bind":
            j = where
            base, x0, S, pos = binds[j].just, binds[j].owner, binds[j].image, entries[j]
            pending = paths[j]
            next_class = (j + 1) % m
        else:
            i, j = where
            x0, S, base, _ = paths[i][j]
            pos = 0
            pending = paths[i][j + 1:]
            next_class = (i + 1) % m

        home = self.rep(x0)
        while True:
            if not isinstance(S, Atom):
                atoms = leaves(S)
                hit = first_leaf_of(atoms, home)
                if hit is not None:
                    for _, _, just, _ in self._path_edges(atoms[hit], x0):
                        S = substitute(S, hit, just)
                    break
            for _, _, just, _ in pending:
                S = substitute(S, pos, just)
            k = next_class
            S = substitute(S, pos, binds[k].just)
            pos += entries[k]
            pending = paths[k]
            next_class = (k + 1) % m

        conclusion = EquivLiteral(True, x0, S)
        witness = CircularWitness(base, tuple(steps), conclusion)
        witness.replay()
        return witness

    # -- resolution ----------------------------------------------------------

    def resolve(self, P: BoolForm) -> BoolForm:
        """Fully unravel bindings, then name free atoms by their class rep.

        Each class is resolved once per state; the results share subtrees.
        """
        return substitute(P, self._resolve_class)

    def _resolve_class(self, a: Atom) -> BoolForm:
        """The resolved image of a's class.  The classes its binding image
        mentions are resolved first, left to right, from an explicit stack."""
        resolved = self._resolved
        r = self.rep(a)
        if r not in resolved:
            def lookup(b: Atom) -> BoolForm:
                return resolved[self.rep(b)]

            todo: list = [r]  # a class, or (class,) once its dependencies are resolved
            while todo:
                c = todo.pop()
                if type(c) is tuple:
                    resolved[c[0]] = substitute(self._bindings[c[0]].image, lookup)
                elif c not in resolved:
                    binding = self._bindings.get(c)
                    if binding is None:
                        resolved[c] = c
                    else:
                        todo.append((c,))
                        todo += [self.rep(b) for b in reversed(leaves(binding.image))]
        return resolved[r]


# ---------------------------------------------------------------------------
# Satisfiability of literal sets

@dataclass(frozen=True)
class SatCheck:
    """Outcome of literal_sat; on success carries a one-world model seed."""

    satisfiable: bool
    reason: str | None = None           # pattern-clash | circular | disequality | boolean
    detail: str = ""
    witness: CircularWitness | None = None
    definitions: dict[Atom, BoolForm] | None = None
    valuation: dict[Atom, bool] | None = None


def literal_sat(equivs, constraints=()) -> SatCheck:
    """Decide a finite set of (dis)equivalences plus boolean constraints.

    Satisfiable iff the positive equivalences unify, no negative literal is
    forced equal after resolution, and some truth assignment to the class
    representatives makes every boolean constraint true.  The model seed maps
    each atom to its resolved definition and extends the representative
    assignment to defined atoms.
    """
    equivs = list(equivs)
    constraints = list(constraints)
    state = DefState()
    for lit in equivs:
        if not lit.positive:
            continue
        try:
            state._consume([(lit.left, lit.right, DInput(lit.left, lit.right))])
        except PatternClash as e:
            return SatCheck(False, "pattern-clash", f"{lit}: {e}")
        except CircularityDetected as e:
            return SatCheck(False, "circular", f"{lit}: {e}", witness=e.witness)

    for lit in equivs:
        if lit.positive:
            continue
        if state.resolve(lit.left) == state.resolve(lit.right):
            return SatCheck(False, "disequality", f"{lit} is violated: both sides resolve to "
                            f"{text_of_bool(state.resolve(lit.left))}")

    vocab: set[Atom] = set()
    for lit in equivs:
        vocab |= vocabulary(lit.left) | vocabulary(lit.right)
    for c in constraints:
        vocab |= vocabulary(c)
    vocab_sorted = sorted(vocab)

    resolved = {a: state.resolve(a) for a in vocab_sorted}
    # every free representative is in the vocabulary and resolves to itself
    free_sorted = sorted({image for image in resolved.values() if isinstance(image, Atom)})
    resolved_constraints = [state.resolve(c) for c in constraints]

    for bits in itertools.product((False, True), repeat=len(free_sorted)):
        assignment = dict(zip(free_sorted, bits))
        if all(truth(rc, assignment) for rc in resolved_constraints):
            values = {}  # by class rep; _resolved lists a class after those its image uses
            for rep in state._resolved:
                binding = state._bindings.get(rep)
                values[rep] = assignment[rep] if binding is None else truth(
                    binding.image, {a: values[state.rep(a)] for a in vocabulary(binding.image)})
            valuation = {a: values[state.rep(a)] for a in vocab_sorted}
            return SatCheck(True, definitions=resolved, valuation=valuation)
    return SatCheck(False, "boolean", "no assignment to the class representatives satisfies "
                    "the boolean constraints")


def parse_literal_lines(text: str) -> tuple[list[EquivLiteral], list[BoolForm]]:
    """Parse a literal file: one `P == Q`, `P != Q`, or boolean formula per line.

    Blank lines and lines starting with `#` are skipped.
    """
    equivs: list[EquivLiteral] = []
    constraints: list[BoolForm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        f = parse_form(line)
        match f:
            case EquivF(left, right):
                equivs.append(EquivLiteral(True, left, right))
            case Neg(EquivF(left, right)):
                equivs.append(EquivLiteral(False, left, right))
            case _:
                if any(type(g) not in (Atom, Neg, And) for g in postorder(f)):
                    raise ValueError(
                        f"line {lineno}: expected P == Q, P != Q, or a boolean formula"
                    )
                constraints.append(f)
    return equivs, constraints

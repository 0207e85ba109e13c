"""Decision procedures for equivalence-by-definition.

Equivalences between boolean formulas are decided by syntactic unification:
atoms act as variables, `~` and `&` as constructors.  A ``DefState`` holds a
union-find partition of atoms (representative = alphabetically least) plus at
most one binding image per class; each union edge and binding keeps its
justification and the sequence number of the event that recorded it.  The
union edges form a proof forest (Nieuwenhuis and Oliveras 2007, "Fast
congruence closure and extensions"), so the path between two atoms of a class
is unique.  The pattern axioms of the logic are exactly the decomposition and
clash rules of unification; the occurs check realises non-circularity, and on
failure a ``CircularWitness`` is extracted from the recorded justifications:
a derivation of an explicitly circular equivalence whose lemmas substitute
round the cycle innermost first.  Unions cost near-constant amortized work
(union by size), an occurs check at most about twice the smaller of the two
sides it searches, and a derivation through a union path is written out
only for a witness.

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
    "EquivLiteral", "DefState", "CircularWitness",
    "PatternClash", "CircularityDetected",
    "Derivation",
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
# Derivations: how a literal follows from the asserted inputs.

@dataclass(frozen=True)
class Derivation:
    """A derivation of `left == right`, which it carries, so replay and proof
    generation never recompute it.  `rule` is "input" for an asserted
    literal, else the name of the law in `proof._SCHEMAS` that the step
    instantiates ("symmetry", "pattern-neg", "pattern-and", "transitivity"
    or "occurrence-substitution"), whose premises are the literals of
    `parts`, in order."""

    rule: str
    left: BoolForm
    right: BoolForm
    parts: tuple["Derivation", ...] = ()


def d_sym(d: Derivation) -> Derivation:
    if d.rule == "symmetry":
        return d.parts[0]
    return Derivation("symmetry", d.right, d.left, (d,))


def d_trans(first: Derivation, second: Derivation) -> Derivation:
    if first.right != second.left:
        raise ValueError("transitivity endpoints do not meet")
    return Derivation("transitivity", first.left, second.right, (first, second))


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
class CircularWitness:
    """A replayable derivation of a circular equivalence, whose left atom
    occurs properly inside its right side.

    Its lemmas are occurrence-substitution nodes: from `p == x` and `y == z`
    a lemma derives `y == w`, w being z with its first p replaced by x.  A
    cycle's lemmas go innermost first, each substituting the next one's
    right side into one binding image, which it shares.
    """

    derivation: Derivation

    @property
    def conclusion(self) -> EquivLiteral:
        return EquivLiteral(True, self.derivation.left, self.derivation.right)

    def _lemmas(self) -> list[Derivation]:
        """The occurrence-substitution nodes, innermost first."""
        found, seen, todo = [], set(), [self.derivation]
        while todo:
            d = todo.pop()
            if id(d) not in seen:
                seen.add(id(d))
                todo += d.parts
                if d.rule == "occurrence-substitution":
                    found.append(d)
        return found[::-1]

    def replay(self) -> EquivLiteral:
        """Check every lemma's substitution; the conclusion must be circular."""
        for d in self._lemmas():
            premise, base = d.parts
            if base.left != d.left:
                raise ValueError(f"a lemma for {d.left} rewrites another left side, {base.left}")
            if not _same(apply_occ_subst(OccSubst(1, premise.left, premise.right), base.right),
                         d.right):
                raise ValueError(f"a lemma for {d.left} is not its base with the first "
                                 f"{premise.left} replaced")
        lit = self.conclusion
        if not is_circular(lit.left, lit.right):
            raise ValueError(f"witness conclusion {lit} is not circular")
        return lit

    def describe(self) -> str:
        lines = []
        for d in self._lemmas():
            premise, base = d.parts
            lines += [f"from   {text_of_bool(base.left)} == {text_of_bool(base.right)}",
                      f"  {OccSubst(1, premise.left, premise.right)}",
                      f"lemma  {text_of_bool(d.left)} == {text_of_bool(d.right)}"]
        lines.append(f"conclusion {self.conclusion} is circular")
        return "\n".join(lines)

    __str__ = describe


def _same(P: BoolForm, Q: BoolForm) -> bool:
    """P == Q from an explicit stack; a subtree the two share is not walked."""
    todo = [(P, Q)]
    while todo:
        a, b = todo.pop()
        if type(a) is Atom or type(a) is not type(b):
            if a != b:
                return False
        elif a is not b:
            todo += [(getattr(a, k), getattr(b, k)) for k in a.__match_args__]
    return True


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

    @functools.cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """The distinct atoms of the image, left to right."""
        return tuple(dict.fromkeys(leaves(self.image)))


@dataclass(frozen=True, eq=False)
class _Pending:
    """The derivation of (first.image == second.image) for two bindings of one
    class, written out by _force through the union path between the owners."""

    first: _Binding
    second: _Binding


@dataclass
class DefState:
    """Unification state over atoms-as-variables; treat as an immutable value.

    All mutation happens on private copies, in assert_equiv and on the state
    literal_sat builds for one call; resolve only fills a cache.
    """

    # union-find, union by size: each atom but a root has a parent, and the
    # root of a class of two or more atoms has (size, least-named atom)
    _parent: dict[Atom, Atom] = field(default_factory=dict)
    _roots: dict[Atom, tuple[int, Atom]] = field(default_factory=dict)
    _bindings: dict[Atom, _Binding] = field(default_factory=dict)  # by class rep
    # class rep -> the bindings whose image mentions the class; a binding
    # that no longer holds for its class is skipped when read
    _users: dict[Atom, list[_Binding]] = field(default_factory=dict)
    # the union edges as a proof forest: atom -> (parent, just for
    # atom == parent, seq); the path between two atoms is unique
    _edges: dict[Atom, tuple[Atom, Derivation, int]] = field(default_factory=dict)
    _events: int = 0  # union and bind events recorded so far
    # resolved image per class representative, filled lazily by resolve; a
    # state never changes after assert_equiv returns it, and literal_sat
    # resolves only after its last assertion, so entries stay valid
    _resolved: dict[Atom, BoolForm] = field(default_factory=dict, compare=False, repr=False)

    # -- structure ----------------------------------------------------------

    def _root(self, a: Atom) -> Atom:
        parent = self._parent
        while a in parent:
            a = parent[a]
        return a

    def rep(self, a: Atom) -> Atom:
        """The least-named atom of a's class."""
        root = self._root(a)
        if self._roots:  # no lookup (an Atom hash) while every class is one atom
            root = self._roots.get(root, (1, root))[1]
        return root

    def bindings(self) -> dict[Atom, BoolForm]:
        """Current binding map, keyed by class representative."""
        return {rep: b.image for rep, b in self._bindings.items()}

    def _copy(self) -> "DefState":
        return DefState(
            dict(self._parent), dict(self._roots), dict(self._bindings),
            {c: list(users) for c, users in self._users.items()}, dict(self._edges),
            self._events,
        )

    # -- assertion ----------------------------------------------------------

    def assert_equiv(self, left: BoolForm, right: BoolForm) -> "DefState":
        """Return a state additionally satisfying `left == right`.

        Raises PatternClash on a negation/conjunction mismatch and
        CircularityDetected (with witness) when the occurs check fails.
        """
        new = self._copy()
        new._consume(left, right, Derivation("input", left, right))
        return new

    def _consume(self, left: BoolForm, right: BoolForm, just: Derivation) -> None:
        """Unify left and right.  The pairs each step yields are pushed in
        reverse, so they are done first and in order.  A pair of equal but
        distinct formulas decomposes into unions within one class, which
        record nothing."""
        stack = [(left, right, just)]
        while stack:
            a, b, just = stack.pop()
            if a is b:
                continue
            match (a, b):
                case (Atom(), Atom()):
                    stack += self._union(a, b, just)
                case (Atom(), _):
                    stack += self._bind(a, b, just)
                case (_, Atom()):
                    stack += self._bind(b, a, d_sym(just))
                case (Neg(x), Neg(y)):
                    stack.append((x, y, Derivation("pattern-neg", x, y, (just,))))
                case (And(x1, x2), And(y1, y2)):
                    stack += [
                        (x2, y2, Derivation("pattern-and", x2, y2, (just,))),
                        (x1, y1, Derivation("pattern-and", x1, y1, (just,))),
                    ]
                case _:
                    if isinstance(a, Neg):
                        raise PatternClash(a, b)
                    raise PatternClash(b, a)

    def _union(self, a: Atom, b: Atom, just: Derivation):
        root_a, root_b = self._root(a), self._root(b)
        if root_a == root_b:
            return []
        seq = self._events
        self._events += 1
        size_a, ra = self._roots.get(root_a, (1, root_a))
        size_b, rb = self._roots.get(root_b, (1, root_b))
        # hang the smaller class's proof tree, re-rooted at its end of the edge
        if size_a <= size_b:
            self._reroot(a)
            self._edges[a] = (b, just, seq)
            small, big = root_a, root_b
        else:
            self._reroot(b)
            self._edges[b] = (a, d_sym(just), seq)
            small, big = root_b, root_a
        keep, lose = (ra, rb) if ra.name < rb.name else (rb, ra)
        self._parent[small] = big
        self._roots.pop(small, None)
        self._roots[big] = (size_a + size_b, keep)
        kept_users, lost_users = self._users.get(keep, []), self._users.pop(lose, [])
        if len(kept_users) < len(lost_users):  # the shorter list joins the longer
            kept_users, lost_users = lost_users, kept_users
        if kept_users:
            kept_users += lost_users
            self._users[keep] = kept_users
        pending = []
        lost_binding = self._bindings.pop(lose, None)
        if lost_binding is not None:
            kept_binding = self._bindings.get(keep)
            if kept_binding is None:
                self._bindings[keep] = lost_binding
            else:
                first, second = sorted((kept_binding, lost_binding), key=lambda x: x.seq)
                self._bindings[keep] = first
                pending.append((first.image, second.image, _Pending(first, second)))
        self._occurs_check(keep)
        return pending

    def _bind(self, a: Atom, image: BoolForm, just: Derivation):
        r = self.rep(a)
        binding = _Binding(a, image, just, self._events)
        existing = self._bindings.get(r)
        if existing is not None:
            return [(existing.image, image, _Pending(existing, binding))]
        self._bindings[r] = binding
        self._events += 1
        for x in binding.atoms:
            self._users.setdefault(self.rep(x), []).append(binding)
        self._occurs_check(r)
        return []

    def _reroot(self, x: Atom) -> None:
        """Make x the root of its proof tree by reversing the edges above it."""
        edges = self._edges
        entry = edges.pop(x, None)
        while entry is not None:
            parent, just, seq = entry
            entry = edges.get(parent)
            edges[parent] = (x, d_sym(just), seq)
            x = parent

    def _path(self, x: Atom, y: Atom) -> list[tuple[Atom, Atom, Derivation, int]]:
        """Union edges along the path x .. y as (from, to, just-for(from==to), seq):
        up from x to the nearest common ancestor, then down to y."""
        edges = self._edges
        above_x = [x]
        while above_x[-1] in edges:
            above_x.append(edges[above_x[-1]][0])
        depth = {a: k for k, a in enumerate(above_x)}
        above_y = [y]
        while above_y[-1] not in depth:
            above_y.append(edges[above_y[-1]][0])
        path = [(u, *edges[u]) for u in above_x[:depth[above_y[-1]]]]
        for v in reversed(above_y[:-1]):
            to, just, seq = edges[v]
            path.append((to, v, d_sym(just), seq))
        return path

    def _force(self, d: Derivation, memo: dict) -> Derivation:
        """d with each pending image pair written out as its d_trans chain:
        the first image back to its owner, the union path on to the second
        owner, then to the second image.  memo maps id(node) to (node, forced
        node), which keeps every node it names alive."""
        todo = [(d, None)]
        while todo:
            node, parts = todo.pop()
            if id(node) in memo:
                continue
            if parts is None:  # list the parts, force them, then come back
                if type(node) is _Pending:
                    path = self._path(node.first.owner, node.second.owner)
                    parts = [node.first.just, *(just for _, _, just, _ in path), node.second.just]
                else:
                    parts = node.parts
                todo += [(node, parts)] + [(part, None) for part in parts]
                continue
            done = [memo[id(part)][1] for part in parts]
            if type(node) is _Pending:
                chain = d_sym(done[0])
                if len(done) > 2:
                    chain = d_trans(chain, functools.reduce(d_trans, done[1:-1]))
                forced = d_trans(chain, done[-1])
            else:
                forced = Derivation(node.rule, node.left, node.right,
                                    tuple(done)) if done else node
            memo[id(node)] = (node, forced)
        return memo[id(d)][1]

    # -- occurs check and witness extraction ---------------------------------

    def _occurs_check(self, changed: Atom) -> None:
        """Raise CircularityDetected if class `changed` now depends on itself.

        The state had no cycle before the event that changed this class, so
        every new cycle passes through it.  A two-way search decides whether
        there is one; only then does a depth-first search, visiting
        dependencies in name order, fix the cycle it reports.
        """
        if changed not in self._bindings or not self._reaches_itself(changed):
            return
        seen = {changed}
        path = [changed]
        branches = [iter(sorted(set(self._dependencies(changed))))]
        while branches:
            for nxt in branches[-1]:
                if nxt == changed:
                    raise CircularityDetected(self._extract_witness(path))
                if nxt not in seen and nxt in self._bindings:
                    seen.add(nxt)
                    path.append(nxt)
                    branches.append(iter(sorted(set(self._dependencies(nxt)))))
                    break
            else:
                path.pop()
                branches.pop()

    def _reaches_itself(self, changed: Atom) -> bool:
        """Whether class `changed` depends on itself.

        One step forward over dependencies alternates with one step backward
        over dependents; the search stops when the two sides meet (a cycle)
        or either side has nothing left to expand (none), so it expands at
        most about twice as many classes as the smaller side holds (Bender,
        Fineman, Gilbert and Tarjan 2016, "A new approach to incremental
        cycle detection and related problems").
        """
        ahead, behind = {changed}, {changed}
        forward, backward = [changed], [changed]
        while forward and backward:
            for c in self._dependencies(forward.pop()):
                if c in behind:
                    return True
                if c not in ahead and c in self._bindings:
                    ahead.add(c)
                    forward.append(c)
            for c in self._dependents(backward.pop()):
                if c in ahead:
                    return True
                if c not in behind:
                    behind.add(c)
                    backward.append(c)
        return False

    def _dependencies(self, r: Atom) -> list[Atom]:
        """Classes whose atoms occur in the binding image of class r."""
        return [self.rep(a) for a in self._bindings[r].atoms]

    def _dependents(self, c: Atom) -> list[Atom]:
        """Classes whose binding image mentions class c."""
        found = []
        for binding in self._users.get(c, ()):
            owner = self.rep(binding.owner)
            if self._bindings.get(owner) is binding:
                found.append(owner)
        return found

    def _extract_witness(self, cycle: list[Atom]) -> CircularWitness:
        """Build a replayable circular derivation from a class-level cycle.

        The cycle starts at the class with the earliest binding, wherever the
        list starts.  The lemmas `owner_i == T_i` are built from the last
        class back to the first: T_{m-1} is the last class's image, and each
        earlier T_i is class i's image with its first leaf in class i + 1
        replaced by T_{i+1}, which that leaf reaches through its union path,
        so a lemma copies only its own image's path.  The witness concludes
        `leaf == T_0`, for the last image's first leaf in the first class.
        """
        start = min(range(len(cycle)), key=lambda i: self._bindings[cycle[i]].seq)
        bindings = [self._bindings[c] for c in cycle[start:] + cycle[:start]]
        memo: dict = {}

        def joined(b: _Binding, lemma: Derivation) -> Derivation:
            """leaf == lemma.right, for b's image's first leaf in lemma.left's
            class: the union path from the leaf to lemma.left, then lemma."""
            home = self.rep(lemma.left)
            leaf = next(a for a in b.atoms if self.rep(a) == home)
            path = [self._force(just, memo) for _, _, just, _ in self._path(leaf, lemma.left)]
            return functools.reduce(d_trans, path + [lemma])

        lemma = self._force(bindings[-1].just, memo)
        for b in reversed(bindings[:-1]):
            premise, base = joined(b, lemma), self._force(b.just, memo)
            image = apply_occ_subst(OccSubst(1, premise.left, premise.right), base.right)
            lemma = Derivation("occurrence-substitution", base.left, image, (premise, base))
        witness = CircularWitness(joined(bindings[-1], lemma))
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
            state._consume(lit.left, lit.right, Derivation("input", lit.left, lit.right))
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
                    binding.image, {a: values[state.rep(a)] for a in binding.atoms})
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

"""Formula syntax: the boolean layer, the modal layer, parsing, printing, and
the purely syntactic measures everything else is built on.

The language has two layers.  The boolean layer is deliberately rigid --
negation and *binary* conjunction only, with every conjunction wrapped in
parentheses -- so that printed text is isomorphic to the tree and syntactic
identity can stand in for identity of meaning.  The modal layer on top adds
the usual connectives (`|`, `->`, `<->` are sugar over `~`/`&`), `box i phi`,
announcement brackets `[phi] psi`, and three operators whose operands are
boolean-layer only: `P == Q`, `p := P`, and `kd i P` (`kx i P` is sugar for
`box i P & kd i P`).  Both layers are built from one family of nodes, so a
boolean formula is a formula with no modal node; which layer a subformula
belongs to is a matter of where it stands in the text.

Formula values are immutable and hashable; every function here is pure.
Parsing, printing and the walkers built on `postorder` use explicit stacks,
so they have no depth limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Atom", "Neg", "And", "BoolForm",
    "EquivF", "BoxF", "AnnF", "KdF", "DefIsF", "Form",
    "OccSubst", "ParseError",
    "parse_bool", "parse_form", "parse_cited", "text_of_bool", "text_of_form", "text_of_batch",
    "length", "vocabulary",
    "lex_key", "lex_compare", "leaves", "occurrences",
    "apply_occ_subst", "apply_simultaneous", "is_circular",
    "postorder", "substitute",
    "mk_or", "mk_imp", "mk_iff", "as_or", "as_imp", "as_iff",
]

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_KEYWORDS = frozenset({"box", "kd", "kx"})


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid {what} name {name!r}: expected [a-z][a-z0-9_]*")
    if name in _KEYWORDS:
        raise ValueError(f"invalid {what} name {name!r}: reserved word")


def _unchecked(cls, **fields):
    """A node of class cls built without its `__post_init__` name check, for
    names the parser's tokenizer has already matched and kept apart from the
    keywords."""
    node = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    return node


# ---------------------------------------------------------------------------
# Boolean layer

@dataclass(frozen=True, order=True)
class Atom:
    """A propositional letter. Atoms are totally ordered by name."""

    name: str

    def __post_init__(self) -> None:
        _check_name(self.name, "atom")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Neg:
    inner: "Form"

    def __str__(self) -> str:
        return text_of_bool(self)


@dataclass(frozen=True)
class And:
    left: "Form"
    right: "Form"

    def __str__(self) -> str:
        return text_of_bool(self)


BoolForm = Atom | Neg | And


# ---------------------------------------------------------------------------
# Modal layer
#
# Its atoms, negations and conjunctions are the boolean layer's Atom, Neg and
# And, so one printed text has one tree, whichever layer reads it.  The
# operands of `==`, `:=` and `kd` are strict boolean syntax: the parser
# checks that, and the printer restores no sugar inside them.

@dataclass(frozen=True)
class EquivF:
    """`P == Q`: P and Q have the same meaning. Operands are boolean-layer."""

    left: "BoolForm"
    right: "BoolForm"

    def __str__(self) -> str:
        return text_of_form(self)


@dataclass(frozen=True)
class BoxF:
    agent: str
    inner: "Form"

    def __post_init__(self) -> None:
        _check_name(self.agent, "agent")

    def __str__(self) -> str:
        return text_of_form(self)


@dataclass(frozen=True)
class AnnF:
    """`[announced] inner`: after truthfully announcing, inner holds."""

    announced: "Form"
    inner: "Form"

    def __str__(self) -> str:
        return text_of_form(self)


@dataclass(frozen=True)
class KdF:
    """`kd i P`: agent i knows the meaning of P."""

    agent: str
    body: "BoolForm"

    def __post_init__(self) -> None:
        _check_name(self.agent, "agent")

    def __str__(self) -> str:
        return text_of_form(self)


@dataclass(frozen=True)
class DefIsF:
    """`p := P`: the local definition of p is exactly P."""

    atom: Atom
    body: "BoolForm"

    def __str__(self) -> str:
        return text_of_form(self)


Form = Atom | EquivF | Neg | And | BoxF | AnnF | KdF | DefIsF


# ---------------------------------------------------------------------------
# Sugar over the primitive connectives.  `a -> b` abbreviates `~a | b` and
# `a | b` abbreviates `~(~a & ~b)`, so an implication is the exact tree
# ~(~~a & ~b); the printer recognises these shapes and re-sugars them.

def mk_or(a: Form, b: Form) -> Form:
    return Neg(And(Neg(a), Neg(b)))


def mk_imp(a: Form, b: Form) -> Form:
    return mk_or(Neg(a), b)


def mk_iff(a: Form, b: Form) -> Form:
    return And(mk_imp(a, b), mk_imp(b, a))


def as_or(f: Form) -> tuple[Form, Form] | None:
    match f:
        case Neg(And(Neg(a), Neg(b))):
            return a, b
    return None


def as_imp(f: Form) -> tuple[Form, Form] | None:
    match f:
        case Neg(And(Neg(Neg(a)), Neg(b))):
            return a, b
    return None


def as_iff(f: Form) -> tuple[Form, Form] | None:
    match f:
        case And(left, right):
            fwd = as_imp(left)
            bwd = as_imp(right)
            if fwd and bwd and fwd == (bwd[1], bwd[0]):
                return fwd
    return None


# ---------------------------------------------------------------------------
# Walking formulas.  The walkers read the flat node list of `postorder`,
# folding it with a value stack where they build a result, so none of them
# recurses and depth is unbounded.

def postorder(f: Form) -> list:
    """The nodes of a formula, children before parents, left to right.

    A modal node's boolean operands are its children too: both sides of an
    `EquivF`, the body of a `KdF`, and the atom and body of a `DefIsF`.  The
    list is a right-first pre-order, reversed.
    """
    if type(f) is Atom:
        return [f]
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        out.append(g)
        kind = type(g)
        if kind is Atom:
            continue
        if kind is Neg or kind is BoxF:
            todo.append(g.inner)
        elif kind is And or kind is EquivF:
            todo += (g.left, g.right)
        elif kind is AnnF:
            todo += (g.announced, g.inner)
        elif kind is KdF:
            todo.append(g.body)
        elif kind is DefIsF:
            todo += (g.atom, g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")
    out.reverse()
    return out


def _fold(P: BoolForm, leaf, neg, conj):
    """P rebuilt bottom-up: leaf(atom) for each atom occurrence, left to right,
    neg(x) for each negation and conj(x, y) for each conjunction."""
    done = []
    for g in postorder(P):
        kind = type(g)
        if kind is Atom:
            done.append(leaf(g))
        elif kind is Neg:
            done[-1] = neg(done[-1])
        elif kind is And:
            right = done.pop()
            done[-1] = conj(done[-1], right)
        else:
            raise TypeError(f"not a boolean formula: {g!r}")
    return done[0]


def substitute(P: BoolForm, image) -> BoolForm:
    """P with each atom occurrence a replaced by image(a), called left to right."""
    return image(P) if type(P) is Atom else _fold(P, image, Neg, And)


# ---------------------------------------------------------------------------
# Syntactic measures

def length(P: BoolForm) -> int:
    """Symbol count of the printed form; parentheses count."""
    return sum(3 if type(g) is And else 1 for g in postorder(P))


def vocabulary(f: Form) -> frozenset[Atom]:
    """The atoms of a formula of either layer."""
    if type(f) is Atom:
        return frozenset((f,))
    return frozenset(leaves(f))


def lex_key(P: BoolForm):
    """Sort key realising the lexicographic order on boolean formulas.

    Constructors rank Atom < Neg < And; atoms compare alphabetically;
    compound formulas compare componentwise left to right.  Python tuple
    comparison on these keys is exactly that order.
    """
    return _fold(P, lambda a: (0, a.name), lambda k: (1, k), lambda l, r: (2, l, r))


def lex_compare(P: BoolForm, Q: BoolForm) -> int:
    """-1, 0, or 1 as P comes before, equals, or comes after Q."""
    kp, kq = lex_key(P), lex_key(Q)
    return -1 if kp < kq else (0 if kp == kq else 1)


def leaves(P: Form) -> list[Atom]:
    """The atom occurrences of P, left to right (printed order)."""
    return [g for g in postorder(P) if type(g) is Atom]


def occurrences(p: Atom, Q: BoolForm) -> int:
    """Number of leaves of Q labelled p (left-to-right printed order)."""
    return leaves(Q).count(p)


@dataclass(frozen=True)
class OccSubst:
    """Replacement of the index-th left-to-right occurrence of atom."""

    index: int
    atom: Atom
    replacement: "BoolForm"

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("occurrence index starts at 1")

    def __str__(self) -> str:
        return f"[{self.index}: {self.atom} -> {text_of_bool(self.replacement)}]"


def apply_occ_subst(s: OccSubst, Q: BoolForm) -> BoolForm:
    """Replace exactly the s.index-th occurrence of s.atom in Q."""
    return apply_simultaneous((s,), Q)


def apply_simultaneous(subs: list[OccSubst] | tuple[OccSubst, ...], Q: BoolForm) -> BoolForm:
    """Apply several occurrence substitutions at once.

    All indices refer to occurrences in the original Q; two substitutions may
    not target the same occurrence.
    """
    targets: dict[tuple[Atom, int], BoolForm] = {}
    for s in subs:
        total = occurrences(s.atom, Q)
        if s.index > total:
            raise ValueError(
                f"occurrence {s.index} of {s.atom} out of range in "
                f"{text_of_bool(Q)} (has {total})"
            )
        key = (s.atom, s.index)
        if key in targets:
            raise ValueError(f"duplicate target occurrence {s.index} of {s.atom}")
        targets[key] = s.replacement

    counts: dict[Atom, int] = {}

    def image(a: Atom) -> BoolForm:
        counts[a] = counts.get(a, 0) + 1
        return targets.get((a, counts[a]), a)

    return substitute(Q, image)


def is_circular(P: BoolForm, Q: BoolForm) -> bool:
    """Whether `P == Q` is a circular equivalence.

    True iff one side is an atom that occurs properly inside the other side.
    """
    def one_way(a: BoolForm, b: BoolForm) -> bool:
        return isinstance(a, Atom) and b != a and a in vocabulary(b)

    return one_way(P, Q) or one_way(Q, P)


# ---------------------------------------------------------------------------
# Printing

def text_of_form(f: Form) -> str:
    """The concrete syntax of a formula, with `|`, `->`, `<->` and `!=`
    restored everywhere outside the operands of `==`, `kd` and `:=`."""
    return _text(f, True)


def text_of_bool(f: Form) -> str:
    """The concrete syntax of a formula with every `~` and `&` as it stands,
    which for a boolean formula is its strict boolean-layer text."""
    return f.name if type(f) is Atom else _text(f, False)


def text_of_batch(forms, sugar: bool = True, terms: list | None = None) -> list[str]:
    """The texts of several formulas: `text_of_form` of each, or without
    sugar `text_of_bool` of each.

    A node object that the batch reaches more than once is printed once per
    sugar setting and its text reused, so the work grows with the distinct
    nodes of the batch rather than with the size of its trees.  Given a list
    terms, that text is appended to terms instead, and the texts, later
    terms included, cite it as `$k` for the k-th term, which `parse_cited`
    reads back.
    """
    forms = list(forms)
    memo = _shared_memo(forms)
    return [_text(f, sugar, memo, terms) for f in forms]


def _shared_memo(forms: list) -> dict:
    """An empty memo for `_text`: the key `(id(node), sugar)`, for both
    settings, of every compound node reached more than once from forms.
    A node met again is not walked again, so this takes one step per
    distinct node."""
    seen: set[int] = set()
    memo: dict = {}
    todo = list(forms)
    while todo:
        g = todo.pop()
        if type(g) is Atom or type(g) is str:  # a str is an agent's name
            continue
        key = id(g)
        if key in seen:
            memo[key, False] = memo[key, True] = None
        else:
            seen.add(key)
            # anything else than a formula is left for `_text` to reject
            todo += [getattr(g, name) for name in getattr(g, "__match_args__", ())]
    return memo


def _text(f: Form, sugar: bool, memo: dict | None = None, terms: list | None = None) -> str:
    """Fragments are pushed onto a stack in reverse reading order and joined
    once, so no level copies its children's text and depth is unbounded.

    The operands of `==`, `kd` and `:=` are strict boolean formulas: sugar is
    off while they are printed, until the None pushed below them comes off
    the stack.

    A node whose key `(id(node), sugar)` is in memo is printed once: a
    `(key, start)` marker pushed below its operands joins the fragments from
    `start` on into its text and stores that text, or its citation once
    the text is appended to terms, with the sugar setting the node leaves
    behind, for its later occurrences.
    """
    resugar = sugar
    out: list[str] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
            continue
        if kind is Atom:
            out.append(g.name)
            continue
        if memo is not None and (key := (id(g), sugar)) in memo:
            done = memo[key]
            if done is not None:
                out.append(done[0])
                sugar = done[1]
                continue
            todo.append((key, len(out)))
        # a prefix and its operand, or an infix operator and its two operands
        sides = None
        if kind is Neg:
            if not sugar:
                prefix, inner = "~", g.inner
            elif type(g.inner) is EquivF:
                sugar = False
                todo.append(None)
                sides = g.inner.left, " != ", g.inner.right
            elif pair := as_imp(g):
                sides = pair[0], " -> ", pair[1]
            elif pair := as_or(g):
                sides = pair[0], " | ", pair[1]
            else:
                prefix, inner = "~", g.inner
        elif kind is And:
            pair = sugar and as_iff(g)
            sides = (pair[0], " <-> ", pair[1]) if pair else (g.left, " & ", g.right)
        elif kind is BoxF:
            prefix, inner = f"box {g.agent} ", g.inner
        elif kind is AnnF:
            out.append("[")
            todo += (g.inner, "] ", g.announced)
            continue
        elif g is None:
            sugar = resugar
            continue
        elif kind is tuple:
            key, start = g
            text = "".join(out[start:])
            del out[start:]
            if terms is not None:
                terms.append(text)
                text = f"${len(terms)}"
            out.append(text)
            memo[key] = text, sugar
            continue
        else:
            sugar = False
            todo.append(None)
            if kind is EquivF:
                sides = g.left, " == ", g.right
            elif kind is DefIsF:
                sides = g.atom, " := ", g.body
            elif kind is KdF:
                prefix, inner = f"kd {g.agent} ", g.body
            else:
                raise TypeError(f"not a formula: {g!r}")
        if sides:
            out.append("(")
            todo += (")", sides[2], sides[1], sides[0])
        else:
            out.append(prefix)
            todo.append(inner)
    return "".join(out)


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    """Malformed concrete syntax; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} (at position {pos}: {text[pos:pos + 12]!r})")


# one match per token: a name, an operator, a citation `$k` of a proof file's
# term, or any other character (an error)
_TOKEN_RE = re.compile(
    r"\s*(?:([a-z][a-z0-9_]*)|(<->|->|==|!=|:=|[~&|()\[\]])|(\$\d+)|(\S))")

# binding strength of the binary operators, loosest first; `->` groups to
# the right, the others to the left.  The prefix operators `~`, `box i`,
# `kd i`, `kx i` and `[A]` bind tighter than all of them.
_BINARY = {"<->": 1, "->": 2, "|": 3, "&": 4, "==": 5, "!=": 5, ":=": 5}
_PREFIX = 6
_CONNECTIVES = {"&": And, "|": mk_or, "->": mk_imp, "<->": mk_iff}
_CLOSER = {"(": ")", "[": "]"}


def _parse(text: str, terms: list | None = None) -> tuple[Form, bool, int | None, int]:
    """Read text once, left to right, with an operand and an operator stack.

    Each operand is (form, boolean, loose): its tree; whether the text is a
    strict boolean formula or a bare conjunction of two; and None when the
    text is a strict boolean formula (an atom, `~P`, or exactly one `P & Q`
    in parentheses), else the position of the first token that keeps it
    from being one.  `==`, `!=`, `:=`, `kd` and `kx` take strict operands
    only.

    With a list terms of (form, strict, size) triples, `$k` pushes the k-th
    form as one operand, strict exactly when strict is true; without, `$`
    is an unexpected character.  Returns the operand of the whole text and
    the text's length with each `$k` counted as size characters.
    """
    operands: list[tuple[Form, bool, int | None]] = []
    # (binding strength, operator, position, agent or announced formula);
    # an open '(' or '[' waits here with strength 0, above a sentinel
    ops: list[tuple[int, str, int, object]] = [(-1, "", 0, None)]
    atoms: dict[str, tuple[Atom, bool, None]] = {}
    written = len(text)

    def reduce(strength: int) -> None:
        while ops[-1][0] >= strength:
            _, op, pos, arg = ops.pop()
            f, boolean, loose = operands.pop()
            if op == "~":
                operands.append((Neg(f), loose is None, loose))
            elif op == "box":
                operands.append((_unchecked(BoxF, agent=arg, inner=f), False, pos))
            elif op == "ann":
                operands.append((AnnF(arg, f), False, pos))
            elif op == "kd" or op == "kx":
                if loose is not None:
                    raise ParseError(f"'{op}' takes a boolean-layer formula", text, loose)
                kd = _unchecked(KdF, agent=arg, body=f)
                operands.append((kd if op == "kd" else
                                 And(_unchecked(BoxF, agent=arg, inner=f), kd), False, pos))
            else:
                lf, lboolean, lloose = operands.pop()
                strict = lloose is None and loose is None
                if op in _CONNECTIVES:
                    # a conjunction of strict operands is strict once parenthesized
                    operands.append((_CONNECTIVES[op](lf, f), op == "&" and strict,
                                     lloose if not lboolean else loose if not boolean else pos))
                elif not strict:
                    raise ParseError(f"operands of '{op}' must be boolean-layer formulas",
                                     text, pos)
                elif op == ":=":
                    if type(lf) is not Atom:
                        raise ParseError("left operand of ':=' must be an atom", text, pos)
                    operands.append((DefIsF(lf, f), False, pos))
                else:
                    eq = EquivF(lf, f)
                    operands.append((eq if op == "==" else Neg(eq), False, pos))

    want_operand = True
    keyword = None  # (word, position) of a `box`, `kd` or `kx` awaiting its agent
    for m in _TOKEN_RE.finditer(text):
        name, sym, cite, other = m.groups()
        pos = m.start(m.lastindex)
        if other is not None or (cite is not None and terms is None):
            raise ParseError("unexpected character", text, pos)
        if keyword is not None:
            if name is None or name in _KEYWORDS:
                raise ParseError("expected an agent name", text, pos)
            ops.append((_PREFIX, keyword[0], keyword[1], name))
            keyword = None
        elif want_operand:
            if name in _KEYWORDS:
                keyword = name, pos
            elif name is not None:
                operand = atoms.get(name)
                if operand is None:
                    operand = atoms[name] = (_unchecked(Atom, name=name), True, None)
                operands.append(operand)
                want_operand = False
            elif cite is not None:
                k = int(cite[1:])
                if not 0 < k <= len(terms):
                    raise ParseError(f"{cite} cites no earlier term", text, pos)
                f, strict, size = terms[k - 1]
                written += size - len(cite)
                operands.append((f, strict, None if strict else pos))
                want_operand = False
            elif sym == "~":
                ops.append((_PREFIX, "~", pos, None))
            elif sym == "(" or sym == "[":
                ops.append((0, sym, pos, None))
            else:
                raise ParseError("expected a formula", text, pos)
        elif sym in _BINARY:
            strength = _BINARY[sym]
            reduce(strength + 1 if sym == "->" else strength)
            ops.append((strength, sym, pos, None))
            want_operand = True
        elif sym == ")" or sym == "]":
            reduce(1)
            if _CLOSER.get(ops[-1][1]) != sym:
                raise ParseError(f"unmatched '{sym}'", text, pos)
            ops.pop()
            if sym == "]":
                ops.append((_PREFIX, "ann", pos, operands.pop()[0]))
                want_operand = True
            elif operands[-1][1]:
                f, _, loose = operands[-1]
                # one conjunction in parentheses is strict; a strict formula is not
                operands[-1] = (f, True, None) if loose is not None else (f, False, pos)
        else:
            raise ParseError("expected an operator or the end of the input", text, pos)
    end = len(text)
    if keyword is not None:
        raise ParseError("expected an agent name", text, end)
    if want_operand:
        raise ParseError("expected a formula", text, end)
    reduce(1)
    if len(ops) > 1:
        raise ParseError(f"expected '{_CLOSER[ops[-1][1]]}'", text, end)
    return (*operands[0], written)


def parse_bool(text: str) -> BoolForm:
    """Parse strict boolean-layer syntax. Unparenthesized '&' is an error."""
    P, boolean, loose, _ = _parse(text)
    if loose is None:
        return P
    if boolean:
        raise ParseError("boolean conjunction must be parenthesized: write (P & Q)", text, loose)
    raise ParseError("expected a boolean formula: an atom, ~P or (P & Q)", text, loose)


def parse_form(text: str) -> Form:
    """Parse the full language (sugar expanded, boolean operands strict)."""
    return _parse(text)[0]


def parse_cited(text: str, terms: list) -> tuple[Form, bool, int]:
    """Parse a text of a proof file: `parse_form`, except that `$k` stands
    for the k-th (form, strict, size) triple of terms, as one operand that
    is a strict boolean formula exactly when strict is true.

    Returns the tree, whether the text is a strict boolean formula, and its
    length with each `$k` written out as a text of the k-th size: the
    triple by which a later text cites this one.  The length is summed over
    the citations of the text, not counted on the tree.
    """
    f, _, loose, size = _parse(text, terms)
    return f, loose is None, size


# ---------------------------------------------------------------------------
# The constructor names of the former modal-layer copies of Atom, Neg and And.
# The benchmark in bench/ still builds queries with them and wraps their
# `__str__`; they go once it moves to Atom/Neg/And (ROADMAP item 1).  Each
# returns a node of the one family, and each is a class of its own, so that
# wrapping its `__str__` leaves Neg's and And's alone.  No node is an
# instance of them: never match on them.

class AtomF:
    def __new__(cls, atom: Atom) -> Atom:
        if type(atom) is not Atom:
            raise TypeError("AtomF wraps a single Atom")
        return atom

    __str__ = text_of_form


class NegF:
    def __new__(cls, inner: Form) -> Neg:
        return Neg(inner)

    __str__ = text_of_form


class AndF:
    def __new__(cls, left: Form, right: Form) -> And:
        return And(left, right)

    __str__ = text_of_form

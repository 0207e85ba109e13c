"""Formula syntax: the boolean layer, the modal layer, parsing, printing, and
the purely syntactic measures everything else is built on.

The language has two layers.  The boolean layer is deliberately rigid --
negation and *binary* conjunction only, with every conjunction wrapped in
parentheses -- so that printed text is isomorphic to the tree and syntactic
identity can stand in for identity of meaning.  The modal layer on top adds
the usual connectives (`|`, `->`, `<->` are sugar over `~`/`&`), `box i phi`,
announcement brackets `[phi] psi`, and three operators whose operands are
boolean-layer only: `P == Q`, `p := P`, and `kd i P` (`kx i P` is sugar for
`box i P & kd i P`).

Formula values are immutable and hashable; every function here is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Atom", "Neg", "And", "BoolForm",
    "AtomF", "EquivF", "NegF", "AndF", "BoxF", "AnnF", "KdF", "DefIsF", "Form",
    "OccSubst", "ParseError",
    "parse_bool", "parse_form", "text_of_bool", "text_of_form",
    "length", "vocabulary", "form_vocabulary", "form_agents",
    "lex_key", "lex_compare", "leaves", "occurrences",
    "apply_occ_subst", "apply_simultaneous", "is_circular",
    "embed_bool", "project_bool",
    "mk_or", "mk_imp", "mk_iff", "as_or", "as_imp", "as_iff",
]

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_KEYWORDS = frozenset({"box", "kd", "kx"})


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid {what} name {name!r}: expected [a-z][a-z0-9_]*")
    if name in _KEYWORDS:
        raise ValueError(f"invalid {what} name {name!r}: reserved word")


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
    inner: "BoolForm"

    def __str__(self) -> str:
        return text_of_bool(self)


@dataclass(frozen=True)
class And:
    left: "BoolForm"
    right: "BoolForm"

    def __str__(self) -> str:
        return text_of_bool(self)


BoolForm = Atom | Neg | And


# ---------------------------------------------------------------------------
# Modal layer
#
# AtomF wraps a single atom; compound boolean material is represented with the
# modal-layer NegF/AndF constructors.  This keeps the embedding of the boolean
# layer canonical: one tree per printed text, and announcement reduction only
# ever meets atomic facts.

@dataclass(frozen=True)
class AtomF:
    atom: Atom

    def __post_init__(self) -> None:
        if not isinstance(self.atom, Atom):
            raise TypeError("AtomF wraps a single Atom")

    def __str__(self) -> str:
        return text_of_form(self)


@dataclass(frozen=True)
class EquivF:
    """`P == Q`: P and Q have the same meaning. Operands are boolean-layer."""

    left: "BoolForm"
    right: "BoolForm"

    def __str__(self) -> str:
        return text_of_form(self)


@dataclass(frozen=True)
class NegF:
    inner: "Form"

    def __str__(self) -> str:
        return text_of_form(self)


@dataclass(frozen=True)
class AndF:
    left: "Form"
    right: "Form"

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


Form = AtomF | EquivF | NegF | AndF | BoxF | AnnF | KdF | DefIsF


# ---------------------------------------------------------------------------
# Sugar over the primitive connectives.  `a -> b` abbreviates `~a | b` and
# `a | b` abbreviates `~(~a & ~b)`, so an implication is the exact tree
# ~(~~a & ~b); the printer recognises these shapes and re-sugars them.

def mk_or(a: Form, b: Form) -> Form:
    return NegF(AndF(NegF(a), NegF(b)))


def mk_imp(a: Form, b: Form) -> Form:
    return mk_or(NegF(a), b)


def mk_iff(a: Form, b: Form) -> Form:
    return AndF(mk_imp(a, b), mk_imp(b, a))


def as_or(f: Form) -> tuple[Form, Form] | None:
    match f:
        case NegF(AndF(NegF(a), NegF(b))):
            return a, b
    return None


def as_imp(f: Form) -> tuple[Form, Form] | None:
    match f:
        case NegF(AndF(NegF(NegF(a)), NegF(b))):
            return a, b
    return None


def as_iff(f: Form) -> tuple[Form, Form] | None:
    match f:
        case AndF(left, right):
            fwd = as_imp(left)
            bwd = as_imp(right)
            if fwd and bwd and fwd == (bwd[1], bwd[0]):
                return fwd
    return None


def embed_bool(P: BoolForm) -> Form:
    """The canonical modal-layer formula expressing a boolean-layer formula."""
    match P:
        case Atom():
            return AtomF(P)
        case Neg(inner):
            return NegF(embed_bool(inner))
        case And(left, right):
            return AndF(embed_bool(left), embed_bool(right))
    raise TypeError(f"not a boolean formula: {P!r}")


def project_bool(f: Form) -> BoolForm | None:
    """Inverse of embed_bool; None when f uses any non-boolean operator."""
    match f:
        case AtomF(a):
            return a
        case NegF(inner):
            p = project_bool(inner)
            return None if p is None else Neg(p)
        case AndF(left, right):
            l, r = project_bool(left), project_bool(right)
            return None if l is None or r is None else And(l, r)
    return None


# ---------------------------------------------------------------------------
# Syntactic measures

def length(P: BoolForm) -> int:
    """Symbol count of the printed form; parentheses count."""
    match P:
        case Atom():
            return 1
        case Neg(inner):
            return length(inner) + 1
        case And(left, right):
            return length(left) + length(right) + 3
    raise TypeError(f"not a boolean formula: {P!r}")


def vocabulary(P: BoolForm) -> frozenset[Atom]:
    match P:
        case Atom():
            return frozenset((P,))
        case Neg(inner):
            return vocabulary(inner)
        case And(left, right):
            return vocabulary(left) | vocabulary(right)
    raise TypeError(f"not a boolean formula: {P!r}")


def form_vocabulary(f: Form) -> frozenset[Atom]:
    match f:
        case AtomF(a):
            return frozenset((a,))
        case EquivF(left, right):
            return vocabulary(left) | vocabulary(right)
        case NegF(inner) | BoxF(_, inner):
            return form_vocabulary(inner)
        case AndF(left, right) | AnnF(left, right):
            return form_vocabulary(left) | form_vocabulary(right)
        case KdF(_, body):
            return vocabulary(body)
        case DefIsF(atom, body):
            return vocabulary(body) | {atom}
    raise TypeError(f"not a formula: {f!r}")


def form_agents(f: Form) -> frozenset[str]:
    match f:
        case AtomF() | EquivF() | DefIsF():
            return frozenset()
        case NegF(inner):
            return form_agents(inner)
        case AndF(left, right) | AnnF(left, right):
            return form_agents(left) | form_agents(right)
        case BoxF(agent, inner):
            return form_agents(inner) | {agent}
        case KdF(agent, _):
            return frozenset((agent,))
    raise TypeError(f"not a formula: {f!r}")


def lex_key(P: BoolForm):
    """Sort key realising the lexicographic order on boolean formulas.

    Constructors rank Atom < Neg < And; atoms compare alphabetically;
    compound formulas compare componentwise left to right.  Python tuple
    comparison on these keys is exactly that order.
    """
    match P:
        case Atom(name):
            return (0, name)
        case Neg(inner):
            return (1, lex_key(inner))
        case And(left, right):
            return (2, lex_key(left), lex_key(right))
    raise TypeError(f"not a boolean formula: {P!r}")


def lex_compare(P: BoolForm, Q: BoolForm) -> int:
    """-1, 0, or 1 as P comes before, equals, or comes after Q."""
    kp, kq = lex_key(P), lex_key(Q)
    return -1 if kp < kq else (0 if kp == kq else 1)


def leaves(P: BoolForm) -> list[Atom]:
    """The atom occurrences of P, left to right (printed order)."""
    found: list[Atom] = []
    todo = [P]
    while todo:
        f = todo.pop()
        match f:
            case Atom():
                found.append(f)
            case Neg(inner):
                todo.append(inner)
            case And(left, right):
                todo += (right, left)
            case _:
                raise TypeError(f"not a boolean formula: {f!r}")
    return found


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

    def go(f: BoolForm) -> BoolForm:
        match f:
            case Atom():
                counts[f] = counts.get(f, 0) + 1
                return targets.get((f, counts[f]), f)
            case Neg(inner):
                return Neg(go(inner))
            case And(left, right):
                new_l = go(left)
                return And(new_l, go(right))
        raise TypeError(f"not a boolean formula: {f!r}")

    return go(Q)


def is_circular(P: BoolForm, Q: BoolForm) -> bool:
    """Whether `P == Q` is a circular equivalence.

    True iff one side is an atom that occurs properly inside the other side.
    """
    def one_way(a: BoolForm, b: BoolForm) -> bool:
        return isinstance(a, Atom) and b != a and a in vocabulary(b)

    return one_way(P, Q) or one_way(Q, P)


# ---------------------------------------------------------------------------
# Printing

def text_of_bool(P: BoolForm) -> str:
    match P:
        case Atom(name):
            return name
        case Neg(inner):
            return "~" + text_of_bool(inner)
        case And(left, right):
            return f"({text_of_bool(left)} & {text_of_bool(right)})"
    raise TypeError(f"not a boolean formula: {P!r}")


def text_of_form(f: Form) -> str:
    match f:
        case AtomF(a):
            return a.name
        case EquivF(left, right):
            return f"({text_of_bool(left)} == {text_of_bool(right)})"
        case DefIsF(atom, body):
            return f"({atom.name} := {text_of_bool(body)})"
        case KdF(agent, body):
            return f"kd {agent} {text_of_bool(body)}"
        case BoxF(agent, inner):
            return f"box {agent} {text_of_form(inner)}"
        case AnnF(announced, inner):
            return f"[{text_of_form(announced)}] {text_of_form(inner)}"
        case NegF(EquivF(left, right)):
            return f"({text_of_bool(left)} != {text_of_bool(right)})"
        case NegF(inner):
            imp = as_imp(f)
            if imp:
                return f"({text_of_form(imp[0])} -> {text_of_form(imp[1])})"
            disj = as_or(f)
            if disj:
                return f"({text_of_form(disj[0])} | {text_of_form(disj[1])})"
            return "~" + text_of_form(inner)
        case AndF(left, right):
            iff = as_iff(f)
            if iff:
                return f"({text_of_form(iff[0])} <-> {text_of_form(iff[1])})"
            return f"({text_of_form(left)} & {text_of_form(right)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    """Malformed concrete syntax; carries the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} (at position {pos}: {text[pos:pos + 12]!r})")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[a-z][a-z0-9_]*)
  | (?P<op><->|->|==|!=|:=|[~&|()\[\]])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character", text, pos)
        if m.lastgroup == "name":
            word = m.group()
            kind = "kw" if word in _KEYWORDS else "name"
            tokens.append((kind, word, pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.tokens[self.i][2])

    def expect(self, kind: str, message: str) -> None:
        if self.peek() != kind:
            raise self.error(message)
        self.advance()

    def at_end(self) -> bool:
        return self.peek() == "end"

    def finish(self) -> None:
        if self.at_end():
            return
        if self.peek() == "&":
            raise self.error(
                "boolean conjunction must be parenthesized: write (P & Q)"
            )
        raise self.error("unexpected trailing input")

    # -- boolean layer (strict: P ::= atom | ~P | (P & P)) ------------------

    def bool_strict(self) -> BoolForm:
        kind, word, _ = self.tokens[self.i]
        if kind == "name":
            self.advance()
            return Atom(word)
        if kind == "~":
            self.advance()
            return Neg(self.bool_strict())
        if kind == "(":
            self.advance()
            left = self.bool_strict()
            self.expect("&", "expected '&' (boolean parentheses wrap exactly one conjunction)")
            right = self.bool_strict()
            self.expect(")", "expected ')' closing the conjunction")
            return And(left, right)
        raise self.error("expected a boolean formula (atom, '~', or '(')")

    # -- modal layer ---------------------------------------------------------
    # precedence, loosest first: <->, ->, |, &, ==/!=/:=, unary

    def form(self) -> Form:
        return self._iff()

    def _iff(self) -> Form:
        f = self._imp()
        while self.peek() == "<->":
            self.advance()
            f = mk_iff(f, self._imp())
        return f

    def _imp(self) -> Form:
        f = self._or()
        if self.peek() == "->":
            self.advance()
            return mk_imp(f, self._imp())
        return f

    def _or(self) -> Form:
        f = self._and()
        while self.peek() == "|":
            self.advance()
            f = mk_or(f, self._and())
        return f

    def _and(self) -> Form:
        f = self._cmp()
        while self.peek() == "&":
            self.advance()
            f = AndF(f, self._cmp())
        return f

    def _cmp(self) -> Form:
        # Speculatively read a strict boolean formula; commit only if an
        # operator with boolean operands follows.
        mark = self.i
        try:
            left = self.bool_strict()
        except ParseError:
            left = None
            self.i = mark
        if left is not None and self.peek() in ("==", "!=", ":="):
            op, _, pos = self.advance()
            if op == ":=" and not isinstance(left, Atom):
                raise ParseError("left operand of ':=' must be an atom", self.text, pos)
            right = self.bool_strict()
            if op == "==":
                return EquivF(left, right)
            if op == "!=":
                return NegF(EquivF(left, right))
            return DefIsF(left, right)
        self.i = mark
        f = self._unary()
        if self.peek() in ("==", "!=", ":="):
            raise self.error("operands of '==' / '!=' / ':=' must be boolean-layer formulas")
        return f

    def _unary(self) -> Form:
        kind, word, _ = self.tokens[self.i]
        if kind == "~":
            self.advance()
            return NegF(self._unary())
        if kind == "kw":
            self.advance()
            agent = self._agent()
            if word == "box":
                return BoxF(agent, self._unary())
            body = self.bool_strict()
            if word == "kd":
                return KdF(agent, body)
            return AndF(BoxF(agent, embed_bool(body)), KdF(agent, body))
        if kind == "[":
            self.advance()
            announced = self.form()
            self.expect("]", "expected ']' closing the announcement")
            return AnnF(announced, self._unary())
        return self._primary()

    def _primary(self) -> Form:
        kind, word, _ = self.tokens[self.i]
        if kind == "(":
            self.advance()
            f = self.form()
            self.expect(")", "expected ')'")
            return f
        if kind == "name":
            self.advance()
            return AtomF(Atom(word))
        raise self.error("expected a formula")

    def _agent(self) -> str:
        kind, word, _ = self.tokens[self.i]
        if kind != "name":
            raise self.error("expected an agent name")
        self.advance()
        return word


def parse_bool(text: str) -> BoolForm:
    """Parse strict boolean-layer syntax. Unparenthesized '&' is an error."""
    parser = _Parser(text)
    f = parser.bool_strict()
    parser.finish()
    return f


def parse_form(text: str) -> Form:
    """Parse the full language (sugar expanded, boolean operands strict)."""
    parser = _Parser(text)
    f = parser.form()
    parser.finish()
    return f

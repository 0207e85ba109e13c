"""Hilbert proof verification, announcement reduction, and satisfiability.

Proofs are hypothesis-free: every line is an axiom-schema instance, a
propositional tautology, or follows by modus ponens or box-necessitation
from earlier lines.  There is no necessitation for announcements and no
replacement-of-equivalents rule; such justifications are rejected.

`reduce_announcements` rewrites announcements away with the six reduction
equivalences (innermost announcements are flattened through the composition
law first).  `satisfiable` decides the announcement-free fragment with a
signed tableau for multimodal K whose branch closure is the definitional
literal check; satisfiable verdicts ship a finite tree model that is
validated and re-checked before being returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .checker import evaluate
from .definitions import (
    CircularWitness, DAndParts, DInput, DNegParts, DSym, DTrans, Derivation,
    EquivLiteral, literal_sat,
)
from .models import Cnf, Model, Premodel, first_model, validate
from .syntax import (
    And, AndF, AnnF, Atom, AtomF, BoolForm, BoxF, DefIsF, EquivF, Form, KdF,
    Neg, NegF, OccSubst, apply_occ_subst, as_iff, as_imp, embed_bool,
    form_agents, form_vocabulary, mk_iff, mk_imp, occurrences, parse_form,
    text_of_form, vocabulary,
)

__all__ = [
    "TAUT_LEAF_LIMIT", "TautologyBudgetError", "is_tautology",
    "is_axiom_instance", "AXIOM_NAMES",
    "ProofLine", "ProofOutcome", "verify_proof",
    "proof_to_json", "proof_from_json",
    "ReductionError", "reduce_announcements",
    "SatOutcome", "satisfiable", "valid",
    "witness_to_proof",
]

TAUT_LEAF_LIMIT = 20


class TautologyBudgetError(ValueError):
    """Too many distinct abstracted leaves to decide."""


def is_tautology(formula: Form) -> bool:
    """Whether the formula's propositional skeleton is valid: its negation has no model.

    Box-, announcement-, equivalence-, kd-, and definition-subtrees (and
    atoms) abstract to propositional letters; identical subtrees share one.
    """
    cnf = Cnf()
    root = cnf.literal(formula)
    n = len(cnf.leaves)
    if n > TAUT_LEAF_LIMIT:
        raise TautologyBudgetError(
            f"{n} distinct subformulas exceed the tautology budget of {TAUT_LEAF_LIMIT}"
        )
    cnf.clauses.append((-root,))
    return first_model(cnf, list(cnf.leaves.values())) is None


# ---------------------------------------------------------------------------
# Axiom schemas

def _match_k(f: Form):
    top = as_imp(f)
    if not top:
        return False
    match top[0]:
        case BoxF(agent, body):
            inner = as_imp(body)
            rest = as_imp(top[1])
            if inner and rest:
                return (rest[0] == BoxF(agent, inner[0])
                        and rest[1] == BoxF(agent, inner[1]))
    return False

def _match_reduction_atom(f: Form):
    both = as_iff(f)
    match both:
        case (AnnF(announced, AtomF() as body), rhs):
            return rhs == mk_imp(announced, body)
    return False

def _match_reduction_equiv(f: Form):
    both = as_iff(f)
    match both:
        case (AnnF(announced, EquivF() as body), rhs):
            return rhs == mk_imp(announced, body)
    return False

def _match_reduction_neg(f: Form):
    both = as_iff(f)
    match both:
        case (AnnF(announced, NegF(inner)), rhs):
            return rhs == mk_imp(announced, NegF(AnnF(announced, inner)))
    return False

def _match_reduction_and(f: Form):
    both = as_iff(f)
    match both:
        case (AnnF(announced, AndF(left, right)), rhs):
            return rhs == AndF(AnnF(announced, left), AnnF(announced, right))
    return False

def _match_reduction_box(f: Form):
    both = as_iff(f)
    match both:
        case (AnnF(announced, BoxF(agent, inner)), rhs):
            return rhs == mk_imp(
                announced, BoxF(agent, mk_imp(announced, AnnF(announced, inner))))
    return False

def _match_reduction_comp(f: Form):
    both = as_iff(f)
    match both:
        case (AnnF(announced, AnnF(second, body)), rhs):
            return rhs == AnnF(AndF(announced, AnnF(announced, second)), body)
    return False

def _match_reflexivity(f: Form):
    match f:
        case EquivF(left, right):
            return left == right
    return False

def _match_symmetry(f: Form):
    top = as_imp(f)
    match top:
        case (EquivF(a, b), EquivF(c, d)):
            return a == d and b == c
    return False

def _match_transitivity(f: Form):
    top = as_imp(f)
    match top:
        case (AndF(EquivF(a, b), EquivF(b2, c)), EquivF(a2, c2)):
            return a == a2 and b == b2 and c == c2
    return False

def _match_equivalence(f: Form):
    top = as_imp(f)
    match top:
        case (EquivF(a, b), rhs):
            return rhs == mk_iff(embed_bool(a), embed_bool(b))
    return False

def _match_occurrence_substitution(f: Form):
    top = as_imp(f)
    match top:
        case (AndF(EquivF(Atom() as p, q), EquivF(r, s)), EquivF(r2, target)):
            if r != r2:
                return False
            return any(
                apply_occ_subst(OccSubst(k, p, q), s) == target
                for k in range(1, occurrences(p, s) + 1)
            )
    return False

def _match_pattern_neg(f: Form):
    both = as_iff(f)
    match both:
        case (EquivF(Neg(a), Neg(b)), EquivF(a2, b2)):
            return a == a2 and b == b2
    return False

def _match_pattern_and(f: Form):
    both = as_iff(f)
    match both:
        case (EquivF(And(a, b), And(c, d)), AndF(EquivF(a2, c2), EquivF(b2, d2))):
            return (a, b, c, d) == (a2, b2, c2, d2)
    return False

def _match_pattern_mismatch(f: Form):
    match f:
        case NegF(EquivF(Neg(), And())):
            return True
    return False

def _match_non_circularity(f: Form):
    match f:
        case NegF(EquivF(Atom() as p, body)):
            return body != p and p in vocabulary(body)
    return False


_SCHEMAS = [
    ("K", _match_k),
    ("reduction-atom", _match_reduction_atom),
    ("reduction-equiv", _match_reduction_equiv),
    ("reduction-neg", _match_reduction_neg),
    ("reduction-and", _match_reduction_and),
    ("reduction-box", _match_reduction_box),
    ("reduction-comp", _match_reduction_comp),
    ("reflexivity", _match_reflexivity),
    ("symmetry", _match_symmetry),
    ("transitivity", _match_transitivity),
    ("equivalence", _match_equivalence),
    ("occurrence-substitution", _match_occurrence_substitution),
    ("pattern-neg", _match_pattern_neg),
    ("pattern-and", _match_pattern_and),
    ("pattern-mismatch", _match_pattern_mismatch),
    ("non-circularity", _match_non_circularity),
]

AXIOM_NAMES = tuple(name for name, _ in _SCHEMAS) + ("taut",)


def is_axiom_instance(formula: Form) -> str | None:
    """Name of the first axiom schema the formula instantiates, else None.

    Propositional tautologies count as instances (name "taut"); the
    tautology check raises TautologyBudgetError past the leaf limit, which
    is distinct from a plain no-match.
    """
    for name, matcher in _SCHEMAS:
        if matcher(formula):
            return name
    if is_tautology(formula):
        return "taut"
    return None


# ---------------------------------------------------------------------------
# Hilbert proofs

@dataclass(frozen=True)
class ProofLine:
    formula: Form
    rule: str                      # axiom | taut | mp | nec
    refs: tuple[int, ...] = ()     # 1-based references to earlier lines
    agent: str | None = None


@dataclass(frozen=True)
class ProofOutcome:
    ok: bool
    line: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return f"line {self.line}: {self.reason}"


def verify_proof(lines) -> ProofOutcome:
    """Check every line; report the first failure with its reason."""
    lines = list(lines)

    def fail(no: int, reason: str) -> ProofOutcome:
        return ProofOutcome(False, no, reason)

    for no, line in enumerate(lines, start=1):
        for ref in line.refs:
            if not 1 <= ref < no:
                return fail(no, f"reference {ref} does not point to an earlier line")
        if line.rule == "axiom":
            try:
                if is_axiom_instance(line.formula) is None:
                    return fail(no, "not an instance of any axiom schema")
            except TautologyBudgetError as e:
                return fail(no, str(e))
        elif line.rule == "taut":
            try:
                if not is_tautology(line.formula):
                    return fail(no, "not a propositional tautology")
            except TautologyBudgetError as e:
                return fail(no, str(e))
        elif line.rule == "mp":
            if len(line.refs) != 2:
                return fail(no, "mp needs exactly two references")
            a, b = line.refs
            wanted = mk_imp(lines[a - 1].formula, line.formula)
            if lines[b - 1].formula != wanted:
                return fail(no, f"line {b} is not line {a} -> this line")
        elif line.rule == "nec":
            if len(line.refs) != 1:
                return fail(no, "nec needs exactly one reference")
            if not line.agent:
                return fail(no, "nec needs an agent")
            if line.formula != BoxF(line.agent, lines[line.refs[0] - 1].formula):
                return fail(no, f"formula is not box {line.agent} of line {line.refs[0]}")
        else:
            return fail(no, f"unknown rule {line.rule!r}")
    return ProofOutcome(True)


def proof_to_json(lines) -> str:
    data = []
    for line in lines:
        entry: dict = {"formula": text_of_form(line.formula), "rule": line.rule}
        if line.refs:
            entry["refs"] = list(line.refs)
        if line.agent is not None:
            entry["agent"] = line.agent
        data.append(entry)
    return json.dumps(data, indent=2) + "\n"


def proof_from_json(text: str) -> list[ProofLine]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("a proof file is a JSON list of line objects")
    lines = []
    for entry in data:
        lines.append(ProofLine(
            formula=parse_form(entry["formula"]),
            rule=entry["rule"],
            refs=tuple(entry.get("refs", ())),
            agent=entry.get("agent"),
        ))
    return lines


# ---------------------------------------------------------------------------
# Announcement reduction

class ReductionError(ValueError):
    """`kd` or `:=` inside an announcement scope has no reduction law."""


def reduce_announcements(formula: Form) -> Form:
    """Equivalent announcement-free formula via the reduction laws."""
    match formula:
        case AtomF() | EquivF() | KdF() | DefIsF():
            return formula
        case NegF(inner):
            return NegF(reduce_announcements(inner))
        case AndF(left, right):
            return AndF(reduce_announcements(left), reduce_announcements(right))
        case BoxF(agent, inner):
            return BoxF(agent, reduce_announcements(inner))
        case AnnF(announced, inner):
            return _push(reduce_announcements(announced), inner)
    raise TypeError(f"not a formula: {formula!r}")


def _push(announced: Form, body: Form) -> Form:
    """Rewrite [announced] body, with announced already announcement-free."""
    match body:
        case AtomF() | EquivF():
            return mk_imp(announced, body)
        case NegF(inner):
            return mk_imp(announced, NegF(_push(announced, inner)))
        case AndF(left, right):
            return AndF(_push(announced, left), _push(announced, right))
        case BoxF(agent, inner):
            return mk_imp(announced, BoxF(agent, mk_imp(announced, _push(announced, inner))))
        case AnnF(second, inner):
            return _push(AndF(announced, _push(announced, second)), inner)
        case KdF() | DefIsF():
            raise ReductionError(
                f"no reduction law for {text_of_form(body)} under an announcement"
            )
    raise TypeError(f"not a formula: {body!r}")


# ---------------------------------------------------------------------------
# Tableau satisfiability for the announcement-free fragment

@dataclass(frozen=True)
class SatOutcome:
    satisfiable: bool
    model: Model | None = None
    world: str | None = None


@dataclass
class _Branch:
    pending: list[Form]
    equivs: list[EquivLiteral] = field(default_factory=list)
    constraints: list[BoolForm] = field(default_factory=list)
    boxes: dict[str, list[Form]] = field(default_factory=dict)
    diamonds: list[tuple[str, Form]] = field(default_factory=list)

    def fork(self, extra: Form) -> "_Branch":
        return _Branch(
            self.pending + [extra],
            list(self.equivs),
            list(self.constraints),
            {a: list(fs) for a, fs in self.boxes.items()},
            list(self.diamonds),
        )


def _forbid_dynamic(formula: Form) -> None:
    match formula:
        case AnnF() | KdF() | DefIsF():
            raise ValueError(
                f"satisfiable() handles the announcement-free fragment; "
                f"reduce or avoid {text_of_form(formula)}"
            )
        case NegF(inner) | BoxF(_, inner):
            _forbid_dynamic(inner)
        case AndF(left, right):
            _forbid_dynamic(left)
            _forbid_dynamic(right)


def _explore(branch: _Branch, world_id: str):
    """Saturate one branch; return a world tree (id, seed, children) or None."""
    while branch.pending:
        f = branch.pending.pop()
        match f:
            case AtomF(a):
                branch.constraints.append(a)
            case NegF(AtomF(a)):
                branch.constraints.append(Neg(a))
            case EquivF(left, right):
                branch.equivs.append(EquivLiteral(True, left, right))
            case NegF(EquivF(left, right)):
                branch.equivs.append(EquivLiteral(False, left, right))
            case NegF(NegF(inner)):
                branch.pending.append(inner)
            case AndF(left, right):
                branch.pending.append(right)
                branch.pending.append(left)
            case NegF(AndF(left, right)):
                result = _explore(branch.fork(NegF(left)), world_id)
                if result is not None:
                    return result
                return _explore(branch.fork(NegF(right)), world_id)
            case BoxF(agent, inner):
                branch.boxes.setdefault(agent, []).append(inner)
            case NegF(BoxF(agent, inner)):
                branch.diamonds.append((agent, NegF(inner)))
            case _:
                raise TypeError(f"not a formula: {f!r}")

    closure = literal_sat(branch.equivs, branch.constraints)
    if not closure.satisfiable:
        return None
    children = []
    for index, (agent, seed_formula) in enumerate(branch.diamonds):
        child = _explore(
            _Branch([seed_formula] + list(branch.boxes.get(agent, []))),
            f"{world_id}.{index}",
        )
        if child is None:
            return None
        children.append((agent, child))
    return (world_id, closure, children)


def _assemble(tree, vocab, agents) -> Model:
    worlds: list[str] = []
    valuation: dict[str, dict[Atom, bool]] = {}
    definitions: dict[str, dict[Atom, BoolForm]] = {}
    pairs: dict[str, set[tuple[str, str]]] = {agent: set() for agent in agents}

    def walk(node):
        world_id, closure, children = node
        worlds.append(world_id)
        valuation[world_id] = {
            a: closure.valuation.get(a, False) for a in vocab}
        definitions[world_id] = {
            a: closure.definitions.get(a, a) for a in vocab}
        for agent, child in children:
            pairs[agent].add((world_id, child[0]))
            walk(child)

    walk(tree)
    return validate(Premodel(
        vocabulary=tuple(vocab),
        agents=tuple(agents),
        worlds=tuple(worlds),
        valuation=valuation,
        definitions=definitions,
        relations={agent: frozenset(ps) for agent, ps in pairs.items()},
        actual=worlds[0],
    ))


def satisfiable(formula: Form) -> SatOutcome:
    """Decide an announcement-free, kd-free, :=-free formula.

    A sat verdict carries a finite tree model, already validated, with the
    query true at its actual world.
    """
    _forbid_dynamic(formula)
    tree = _explore(_Branch([formula]), "w0")
    if tree is None:
        return SatOutcome(False)
    vocab = sorted(form_vocabulary(formula))
    agents = sorted(form_agents(formula))
    model = _assemble(tree, vocab, agents)
    if not evaluate(model, "w0", formula):
        raise AssertionError(
            f"tableau produced a bad certificate for {text_of_form(formula)}")
    return SatOutcome(True, model, "w0")


def valid(formula: Form) -> bool:
    """Validity via reduction and refutation of the negation."""
    return not satisfiable(NegF(reduce_announcements(formula))).satisfiable


# ---------------------------------------------------------------------------
# Turning circularity witnesses into checkable proofs

def _conjoin(forms: list[Form]) -> Form:
    result = forms[-1]
    for f in reversed(forms[:-1]):
        result = AndF(f, result)
    return result


def witness_to_proof(witness: CircularWitness, premises) -> list[ProofLine]:
    """Compile a circularity witness into a hypothesis-free Hilbert proof.

    The proof derives `~C`, where C is the conjunction of the positive
    equivalence literals handed in (the inconsistent input set): every
    intermediate equivalence is carried as `C -> lit`, chained through
    definition-axiom instances with tautology glue, and the circular
    conclusion is refuted by the non-circularity axiom.
    """
    premise_forms = [EquivF(lit.left, lit.right) for lit in premises]
    if not premise_forms:
        raise ValueError("no premises to refute")
    big_c = _conjoin(premise_forms)

    lines: list[ProofLine] = []
    by_formula: dict[Form, int] = {}

    def add(formula: Form, rule: str, refs: tuple[int, ...] = (), agent=None) -> int:
        if rule in ("axiom", "taut") and formula in by_formula:
            return by_formula[formula]
        lines.append(ProofLine(formula, rule, refs, agent))
        by_formula.setdefault(formula, len(lines))
        return len(lines)

    def chain1(line_ca: int, a: Form, via: Form, d: Form) -> int:
        """From C->a and an axiom `via` that propositionally yields a->d."""
        ca = mk_imp(big_c, a)
        cd = mk_imp(big_c, d)
        t = add(mk_imp(ca, mk_imp(via, cd)), "taut")
        step = add(mk_imp(via, cd), "mp", (line_ca, t))
        via_line = add(via, "axiom")
        return add(cd, "mp", (via_line, step))

    def chain2(line_ca: int, a: Form, line_cb: int, b: Form, via: Form, d: Form) -> int:
        """From C->a, C->b and an axiom `via` = (a & b) -> d."""
        ca, cb, cd = mk_imp(big_c, a), mk_imp(big_c, b), mk_imp(big_c, d)
        t = add(mk_imp(ca, mk_imp(cb, mk_imp(via, cd))), "taut")
        s1 = add(mk_imp(cb, mk_imp(via, cd)), "mp", (line_ca, t))
        s2 = add(mk_imp(via, cd), "mp", (line_cb, s1))
        via_line = add(via, "axiom")
        return add(cd, "mp", (via_line, s2))

    derived: dict[Form, int] = {}

    def derive(d: Derivation) -> int:
        """Line number of `C -> (d.left == d.right)`."""
        lit = EquivF(d.left, d.right)
        target = mk_imp(big_c, lit)
        if lit in derived:
            return derived[lit]
        match d:
            case DInput():
                if lit not in premise_forms:
                    raise ValueError(f"witness uses unknown premise {text_of_form(lit)}")
                line = add(target, "taut")
            case DSym(_, _, of):
                base = derive(of)
                src = EquivF(of.left, of.right)
                line = chain1(base, src, mk_imp(src, lit), lit)
            case DNegParts(_, _, of):
                base = derive(of)
                src = EquivF(of.left, of.right)
                line = chain1(base, src, mk_iff(src, lit), lit)
            case DAndParts(_, _, of, side):
                base = derive(of)
                src = EquivF(of.left, of.right)
                both = AndF(EquivF(of.left.left, of.right.left),
                            EquivF(of.left.right, of.right.right))
                line = chain1(base, src, mk_iff(src, both), lit)
            case DTrans(_, _, first, second):
                la, lb = derive(first), derive(second)
                a = EquivF(first.left, first.right)
                b = EquivF(second.left, second.right)
                via = mk_imp(AndF(a, b), lit)
                line = chain2(la, a, lb, b, via, lit)
            case _:
                raise TypeError(f"unknown derivation node {d!r}")
        derived[lit] = line
        return line

    current = EquivF(witness.base.left, witness.base.right)
    line_current = derive(witness.base)
    rhs = witness.base.right
    for step in witness.steps:
        premise = EquivF(step.premise.left, step.premise.right)
        line_premise = derive(step.premise)
        rhs = apply_occ_subst(step.subst, rhs)
        conclusion = EquivF(witness.base.left, rhs)
        via = mk_imp(AndF(premise, current), conclusion)
        line_current = chain2(line_premise, premise, line_current, current, via, conclusion)
        current = conclusion

    non_circ = add(NegF(current), "axiom")
    flip = add(mk_imp(mk_imp(big_c, current),
                      mk_imp(NegF(current), NegF(big_c))), "taut")
    s = add(mk_imp(NegF(current), NegF(big_c)), "mp", (line_current, flip))
    add(NegF(big_c), "mp", (non_circ, s))
    return lines

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
from dataclasses import dataclass

from .checker import evaluate
from .definitions import CircularWitness, Derivation, EquivLiteral, literal_sat
from .models import Cnf, Model, Premodel, first_model, json_typed, validate
from .syntax import (
    And, AnnF, Atom, BoolForm, BoxF, DefIsF, EquivF, Form, KdF, Neg, OccSubst,
    ParseError, _check_name, apply_occ_subst, as_iff, as_imp, is_circular, mk_imp,
    occurrences, parse_cited, parse_form, postorder, text_of_batch, text_of_form,
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
#
# Each law is written once, as schema text.  Every name in a schema is a
# metavariable: `p` is any atom, the agent `a` is any agent, and any other
# letter is any formula of its layer.  A letter used in both layers (the x and
# y of `equivalence`) is one boolean formula in both.  The table serves the
# verifier, announcement reduction and the circularity proofs alike; its
# order fixes which name a formula gets first.

_SCHEMA_TEXTS = [
    ("K", "box a (x -> y) -> (box a x -> box a y)"),
    ("reduction-atom", "[x] p <-> (x -> p)"),
    ("reduction-equiv", "[x] (y == z) <-> (x -> (y == z))"),
    ("reduction-neg", "[x] ~y <-> (x -> ~[x] y)"),
    ("reduction-and", "[x] (y & z) <-> ([x] y & [x] z)"),
    ("reduction-box", "[x] box a y <-> (x -> box a (x -> [x] y))"),
    ("reduction-comp", "[x][y] z <-> [x & [x] y] z"),
    ("reflexivity", "x == x"),
    ("symmetry", "(x == y) -> (y == x)"),
    ("transitivity", "((x == y) & (y == z)) -> (x == z)"),
    ("equivalence", "(x == y) -> (x <-> y)"),
    ("occurrence-substitution", "((p == x) & (y == z)) -> (y == w)"),
    ("pattern-neg", "(~x == ~y) <-> (x == y)"),
    ("pattern-and", "((x & y) == (z & w)) <-> ((x == z) & (y == w))"),
    ("pattern-mismatch", "~(~x == (y & z))"),
    ("non-circularity", "~(p == x)"),
]
_SCHEMAS = {name: parse_form(text) for name, text in _SCHEMA_TEXTS}

_SIDE_CONDITIONS = {
    # w is z with one occurrence of p replaced by x
    "occurrence-substitution": lambda env: any(
        apply_occ_subst(OccSubst(k, env["p"], env["x"]), env["z"]) == env["w"]
        for k in range(1, occurrences(env["p"], env["z"]) + 1)),
    "non-circularity": lambda env: is_circular(env["p"], env["x"]),
}

AXIOM_NAMES = tuple(_SCHEMAS) + ("taut",)


def _bind(name: str, value, env: dict) -> bool:
    """Bind the metavariable name to value, or check value against its binding."""
    if name == "p" and type(value) is not Atom:
        return False
    return env.setdefault(name, value) == value


def _match(schema, f, env: dict) -> bool:
    """Whether f instantiates schema under env, extending env as it goes."""
    match schema:
        case Atom(name) | str(name):
            return _bind(name, f, env)
    return type(schema) is type(f) and all(
        _match(getattr(schema, k), getattr(f, k), env) for k in schema.__match_args__)


def _instance(schema, env: dict):
    """The schema with its metavariables replaced by their values in env,
    each announcement of the schema rewritten by `_push` as it is built."""
    match schema:
        case Atom(name) | str(name):
            return env[name]
        case AnnF(announced, inner):
            return _push(_instance(announced, env), _instance(inner, env))
    return type(schema)(*[_instance(getattr(schema, k), env) for k in schema.__match_args__])


def is_axiom_instance(formula: Form) -> str | None:
    """Name of the first axiom schema the formula instantiates, else None.

    Propositional tautologies count as instances (name "taut"); the
    tautology check raises TautologyBudgetError past the leaf limit, which
    is distinct from a plain no-match.
    """
    for name, schema in _SCHEMAS.items():
        env: dict = {}
        side = _SIDE_CONDITIONS.get(name)
        if _match(schema, formula, env) and (side is None or side(env)):
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
        try:
            if line.rule == "axiom":
                if is_axiom_instance(line.formula) is None:
                    return fail(no, "not an instance of any axiom schema")
            elif line.rule == "taut":
                if not is_tautology(line.formula):
                    return fail(no, "not a propositional tautology")
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
                try:
                    boxed = BoxF(line.agent, lines[line.refs[0] - 1].formula)
                except ValueError as e:  # the agent is not a name
                    return fail(no, str(e))
                if line.formula != boxed:
                    return fail(no, f"formula is not box {line.agent} of line {line.refs[0]}")
            else:
                return fail(no, f"unknown rule {line.rule!r}")
        except TautologyBudgetError as e:
            return fail(no, str(e))
    return ProofOutcome(True)


def proof_to_json(lines) -> str:
    """The proof file of the lines: `{"terms": [...], "lines": [...]}`.

    The formulas are printed as one batch, and each node object that they
    reach more than once is printed once, as the next term, and cited as
    `$k` wherever it recurs, in later terms too.
    """
    lines = list(lines)
    terms: list[str] = []
    entries = []
    for line, text in zip(lines, text_of_batch((line.formula for line in lines), terms=terms)):
        entry = {"formula": text, "rule": line.rule}
        if line.refs:
            entry["refs"] = list(line.refs)
        if line.agent is not None:
            entry["agent"] = line.agent
        entries.append(entry)
    return json.dumps({"terms": terms, "lines": entries}, indent=2) + "\n"


# The lines of a proof file, with every `$k` written out as its term's text,
# are at most this many times as long as the file.
_EXPANSION_CAP = 32


def proof_from_json(text: str) -> list[ProofLine]:
    """The lines of a proof file; a wrong shape or a formula that does not
    parse raises ValueError naming the term, or the line and the field.

    Each term is parsed once, in order, and `$k` in a later term or a line
    is the k-th term's tree, one object wherever it is cited.  A JSON list
    is read as the lines of a file with no terms.  The lines are checked
    and parsed one at a time, so the first bad line is the one reported.
    A file whose lines, with every citation written out, would be more than
    `_EXPANSION_CAP` times as long as the file is an error: a term may cite
    an earlier term twice, so a short file could stand for exponentially
    large trees.
    """
    data = json.loads(text)
    if isinstance(data, list):
        data = {"lines": data}
    json_typed(data, dict, "a proof file")
    if "lines" not in data:
        raise ValueError("a proof file is missing key 'lines'")
    cap = _EXPANSION_CAP * len(text)
    cited = []  # the (tree, strict, written-out length) of each term

    def read(source, where: str) -> tuple[Form, bool, int]:
        try:
            f, strict, size = parse_cited(source, cited)
        except ParseError as e:
            raise ValueError(f"{where}: {e}") from None
        return f, strict, min(size, cap + 1)

    for no, term in enumerate(json_typed(data.get("terms", []), list, '"terms"'), start=1):
        where = f"proof term {no}"
        cited.append(read(json_typed(term, str, where), where))
    lines = []
    total = 0
    for no, entry in enumerate(json_typed(data["lines"], list, '"lines"'), start=1):
        where = f"proof line {no}"
        json_typed(entry, dict, where)
        try:
            formula, rule = entry["formula"], entry["rule"]
        except KeyError as e:
            raise ValueError(f"{where} is missing key {e}") from None
        where_formula = f'{where}: "formula"'
        f, _, size = read(json_typed(formula, str, where_formula), where_formula)
        total += size
        if total > cap:
            raise ValueError(f"{where}: with their terms written out, the lines are more "
                             f"than {_EXPANSION_CAP} times as long as the file")
        agent = entry.get("agent")
        if agent is not None:
            json_typed(agent, str, f'{where}: "agent"')
            try:
                _check_name(agent, "agent")
            except ValueError as e:
                raise ValueError(f'{where}: "agent": {e}') from None
        lines.append(ProofLine(
            f, json_typed(rule, str, f'{where}: "rule"'),
            tuple(json_typed(ref, int, f'{where}: each of "refs"')
                  for ref in json_typed(entry.get("refs", []), list, f'{where}: "refs"')),
            agent))
    return lines


# ---------------------------------------------------------------------------
# Announcement reduction

class ReductionError(ValueError):
    """`kd` or `:=` inside an announcement scope has no reduction law."""


def reduce_announcements(formula: Form) -> Form:
    """Equivalent announcement-free formula via the reduction laws."""
    match formula:
        case Atom() | EquivF() | KdF() | DefIsF():
            return formula
        case Neg(inner):
            return Neg(reduce_announcements(inner))
        case And(left, right):
            return And(reduce_announcements(left), reduce_announcements(right))
        case BoxF(agent, inner):
            return BoxF(agent, reduce_announcements(inner))
        case AnnF(announced, inner):
            return _push(reduce_announcements(announced), inner)
    raise TypeError(f"not a formula: {formula!r}")


# The reduction law for `[x] body`, by the constructor of body.
_REDUCTIONS = {type(lhs.inner): (lhs, rhs) for lhs, rhs in (
    as_iff(schema) for name, schema in _SCHEMAS.items() if name.startswith("reduction-"))}


def _push(announced: Form, body: Form) -> Form:
    """Rewrite [announced] body, with announced already announcement-free.

    The right-hand side of the body's reduction law is built with its own
    announcements pushed in turn, so compositions flatten innermost first.
    """
    law = _REDUCTIONS.get(type(body))
    if law is None:
        if isinstance(body, KdF | DefIsF):
            raise ReductionError(
                f"no reduction law for {text_of_form(body)} under an announcement"
            )
        raise TypeError(f"not a formula: {body!r}")
    lhs, rhs = law
    env: dict = {}
    _match(lhs, AnnF(announced, body), env)
    return _instance(rhs, env)


# ---------------------------------------------------------------------------
# Tableau satisfiability for the announcement-free fragment

@dataclass(frozen=True)
class SatOutcome:
    satisfiable: bool
    model: Model | None = None
    world: str | None = None


def _signature(formula: Form) -> tuple[list[Atom], list[str]]:
    """The sorted atoms and agents of a query, in one walk.

    Refuses the first announcement, `kd` or `:=` in reading order.
    """
    atoms: set[Atom] = set()
    agents: set[str] = set()
    first: list = []  # per subformula: the first refused node in it, or None
    for g in postorder(formula):
        kind = type(g)
        if kind is Atom:
            atoms.add(g)
            first.append(None)
        elif kind is And or kind is EquivF:
            right = first.pop()
            first[-1] = first[-1] or right
        elif kind is BoxF:
            agents.add(g.agent)
        elif kind is AnnF or kind is KdF or kind is DefIsF:
            if kind is not KdF:
                first.pop()
            first[-1] = g  # a node comes before its operands
        # Neg keeps its operand's entry
    refused = first[0]
    if type(refused) is AnnF:
        raise ValueError(f"satisfiable() handles the announcement-free fragment; "
                         f"reduce or avoid {text_of_form(refused)}")
    if refused is not None:
        op = "kd" if type(refused) is KdF else ":="
        raise ValueError(f"satisfiable() does not decide {op}; avoid {text_of_form(refused)}")
    return sorted(atoms), sorted(agents)


def _explore(pending: list[Form], literals: list[Form], world_id: str):
    """Saturate one branch; return a world tree (id, closure, children) or None.

    A branch is the stack of formulas still to expand and the literals found
    so far, in order: atoms, equivalences and boxes, each possibly negated.
    """
    while pending:
        f = pending.pop()
        match f:
            case Atom() | EquivF() | BoxF() | Neg(Atom() | EquivF() | BoxF()):
                literals.append(f)
            case And(left, right):
                pending += (right, left)
            case Neg(Neg(inner)):
                pending.append(inner)
            case Neg(And(left, right)):
                return (_explore(pending + [Neg(left)], list(literals), world_id)
                        or _explore(pending + [Neg(right)], literals, world_id))
            case _:
                raise TypeError(f"not a formula: {f!r}")

    equivs: list[EquivLiteral] = []
    constraints: list[BoolForm] = []
    boxes: dict[str, list[Form]] = {}
    diamonds: list[tuple[str, Form]] = []
    for f in literals:
        match f:
            case Atom() | Neg(Atom()):
                constraints.append(f)
            case EquivF(left, right):
                equivs.append(EquivLiteral(True, left, right))
            case Neg(EquivF(left, right)):
                equivs.append(EquivLiteral(False, left, right))
            case BoxF(agent, inner):
                boxes.setdefault(agent, []).append(inner)
            case Neg(BoxF(agent, inner)):
                diamonds.append((agent, Neg(inner)))
    closure = literal_sat(equivs, constraints)
    if not closure.satisfiable:
        return None
    children = []
    for index, (agent, seed_formula) in enumerate(diamonds):
        child = _explore([seed_formula] + boxes.get(agent, []), [], f"{world_id}.{index}")
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
        relations=pairs,
        actual=worlds[0],
    ))


def satisfiable(formula: Form) -> SatOutcome:
    """Decide an announcement-free, kd-free, :=-free formula.

    A sat verdict carries a finite tree model, already validated, with the
    query true at its actual world.
    """
    vocab, agents = _signature(formula)
    tree = _explore([formula], [], "w0")
    if tree is None:
        return SatOutcome(False)
    model = _assemble(tree, vocab, agents)
    # the model is built on exactly the query's atoms and agents, so
    # check_query cannot fail; the evaluation checks the tableau's answer
    if not evaluate(model, "w0", formula, _checked=True):
        raise AssertionError(
            f"tableau produced a bad certificate for {text_of_form(formula)}")
    return SatOutcome(True, model, "w0")


def valid(formula: Form) -> bool:
    """Validity via reduction and refutation of the negation."""
    return not satisfiable(Neg(reduce_announcements(formula))).satisfiable


# ---------------------------------------------------------------------------
# Turning circularity witnesses into checkable proofs

def _conjoin(forms: list[Form]) -> Form:
    result = forms[-1]
    for f in reversed(forms[:-1]):
        result = And(f, result)
    return result


# The laws a derivation step may name: the premise and conclusion sides of
# each schema that is an implication or an equivalence
_LAWS = {name: sides for name, schema in _SCHEMAS.items()
         if (sides := as_iff(schema) or as_imp(schema))}


def _law(d: Derivation, lit: Form) -> Form:
    """The instance of the law d names whose premise side is the conjunction
    of the literals of d's parts, whose conclusion side is lit or has lit
    as a conjunct, and which meets the law's side condition; ValueError if
    there is none."""
    premise, conclusion = _LAWS.get(d.rule, (None, None))
    side = _SIDE_CONDITIONS.get(d.rule)
    env: dict = {}
    if (premise is None or not d.parts
            or not _match(premise, _conjoin([EquivF(p.left, p.right) for p in d.parts]), env)
            or not any(_match(c, lit, env) for c in _conjuncts(conclusion))
            or side is not None and not side(env)):
        raise ValueError(f"a {d.rule} step does not derive {text_of_form(lit)} from its parts")
    return _instance(_SCHEMAS[d.rule], env)


def _conjuncts(f: Form) -> tuple[Form, ...]:
    """f and, for a conjunction, its two operands."""
    return (f, f.left, f.right) if type(f) is And else (f,)


def witness_to_proof(witness: CircularWitness, literals) -> list[ProofLine]:
    """Compile a circularity witness into a hypothesis-free Hilbert proof.

    `literals` are the literals the witness was found on, of both signs,
    including those it does not use.  The proof derives `~C`, where C is the
    conjunction, in input order, of the positive literals that the witness
    uses.  Every intermediate equivalence lit is carried as `C_S -> lit`,
    where C_S is the conjunction, in input order, of the premises S that
    lit's derivation uses; it is chained through definition-axiom instances
    with tautology glue that weakens each premise's C_S to their union's, and
    the circular conclusion is refuted by the non-circularity axiom.  The
    lemmas, nested as deep as the cycle is long, compile without recursion.
    """
    premise_forms = [EquivF(lit.left, lit.right) for lit in literals if lit.positive]
    position: dict[Form, int] = {}  # a premise's first position
    firsts = [position.setdefault(f, k) for k, f in enumerate(premise_forms)]
    hypotheses: dict[frozenset[int], Form] = {}

    def hypothesis(used: frozenset[int]) -> Form:
        """C_S, built once per set of premise positions."""
        if used not in hypotheses:
            hypotheses[used] = _conjoin([premise_forms[k] for k in sorted(used)])
        return hypotheses[used]

    lines: list[ProofLine] = []
    by_formula: dict[Form, int] = {}

    def add(formula: Form, rule: str, refs: tuple[int, ...] = (), agent=None) -> int:
        if rule in ("axiom", "taut") and formula in by_formula:
            return by_formula[formula]
        lines.append(ProofLine(formula, rule, refs, agent))
        by_formula.setdefault(formula, len(lines))
        return len(lines)

    def chain(premises: list[tuple[int, frozenset[int]]], via: Form,
              d: Form) -> tuple[int, frozenset[int]]:
        """From the lines `C_S -> f` of the premises f and an axiom `via`
        that yields d from them propositionally, the line `C_S -> d` for the
        union S of their premise sets."""
        used = frozenset().union(*(s for _, s in premises))
        cd = mk_imp(hypothesis(used), d)
        goals = [mk_imp(via, cd)]
        for ref, _ in reversed(premises):
            goals.append(mk_imp(lines[ref - 1].formula, goals[-1]))
        line = add(goals.pop(), "taut")
        for ref, _ in premises:
            line = add(goals.pop(), "mp", (ref, line))
        return add(cd, "mp", (add(via, "axiom"), line)), used

    # lit -> (line of `C_S -> lit`, S), from an explicit stack; a node's law
    # is checked when its parts are done, also if they derived its literal
    derived: dict[Form, tuple[int, frozenset[int]]] = {}
    todo = [(witness.derivation, False)]
    while todo:
        d, parts_done = todo.pop()
        lit = EquivF(d.left, d.right)
        if parts_done:
            premises = [derived[EquivF(part.left, part.right)] for part in d.parts]
            derived[lit] = chain(premises, _law(d, lit), lit)
        elif lit in derived:
            continue
        elif d.rule == "input":
            if lit not in position:
                raise ValueError(f"witness uses unknown premise {text_of_form(lit)}")
            used = frozenset((position[lit],))
            derived[lit] = add(mk_imp(hypothesis(used), lit), "taut"), used
        else:
            todo.append((d, True))
            todo += [(part, False) for part in reversed(d.parts)]

    current = EquivF(witness.derivation.left, witness.derivation.right)
    # C conjoins every line of the premises S the proof uses, so a repeated
    # line enters it as often as it is given
    proved_line, used = derived[current]
    conjuncts = [f for f, k in zip(premise_forms, firsts) if k in used]
    big_c = hypothesis(used) if len(conjuncts) == len(used) else _conjoin(conjuncts)
    non_circ = add(Neg(current), "axiom")  # the non-circularity instance for current
    refute = mk_imp(Neg(current), Neg(big_c))
    flip = add(mk_imp(lines[proved_line - 1].formula, refute), "taut")
    s = add(refute, "mp", (proved_line, flip))
    add(Neg(big_c), "mp", (non_circ, s))
    return lines

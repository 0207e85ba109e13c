"""Kripke models with per-world boolean definitions.

A premodel supplies worlds, per-agent relations, a valuation, and a local
definition function DEF_w assigning each atom a boolean formula.  A premodel
is a model when, at every world, (1) formulas with identical unravelings get
identical truth values and (2) every atom mentioned in a definition is
self-evident there (DEF_w(p) = p), which rules out circular chains.  The
quantified form of (1) reduces, given (2), to the atom-level check
V_w(p) = V_w(unravel(p)); `validate` checks exactly that, and the test suite
guards the reduction by brute force.

Models are immutable after validation; `restrict` returns a fresh model.
A relation is stored only as a successor index: agent -> world -> its
successors, sorted and each once.  The loader builds it from the file's pair
lists, a premodel built from pair sets converts them once, and `restrict`
filters its parent's index.  `Premodel.relations` reads the index as a
mapping from agent to a frozenset of (u, v) pairs, built when it is read.

The module also holds the propositional core that the decision procedures
share.  `truth` evaluates a boolean formula under a dict valuation.  `Cnf`
encodes skeletons into clauses: one variable per distinct leaf, one per
conjunction node, and negation flips the literal.  It reads the `~`/`&`
skeleton of a formula of either layer; any other node is a leaf.
`first_model` is the Davis-Logemann-Loveland search (CACM 5(7), 1962): unit
propagation plus chronological branching, in a given variable order, False
first, so the model it returns is the least one in that order.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .syntax import (
    And, Atom, BoolForm, Neg, parse_bool, postorder, substitute, text_of_bool,
    vocabulary,
)

__all__ = [
    "Premodel", "Model", "Relations", "Violation", "InvalidModelError",
    "unravel", "eval_bool", "validate", "restrict", "truth", "Cnf", "first_model",
    "load", "save", "loads", "dumps", "premodel_from_dict", "premodel_to_dict",
    "single_world_model", "fixture_path", "fixture_names", "FIXTURE_ENV_VAR",
]

FIXTURE_ENV_VAR = "PALDEF_FIXTURES"
_FIXTURE_NAMES = ("fig1", "fig2", "fig3", "fig4")


class Relations(Mapping):
    """Read-only agent -> frozenset of (u, v) pairs, stored as `index`:
    agent -> world -> its sorted successors, where a world without
    successors has no entry.  Reading an agent builds its pair set anew.
    No package code reads the pair sets, but the benchmark's reference
    checker does: `bench/reference.py` (`model_from_paldef`) iterates
    `model.relations.items()`, so removing this view changes the benchmark."""

    __slots__ = ("index",)

    def __init__(self, index: dict[str, dict[str, tuple[str, ...]]]):
        self.index = index

    def __getitem__(self, agent: str) -> frozenset[tuple[str, str]]:
        return frozenset((u, v) for u, vs in self.index[agent].items() for v in vs)

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, agent) -> bool:
        return agent in self.index

    def __eq__(self, other) -> bool:
        if isinstance(other, Relations):
            return self.index == other.index
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _successor_lists(pairs, ids: dict[str, str]) -> dict[str, tuple[str, ...]]:
    """One agent's index entry from (u, v) pairs in any order; duplicates
    are dropped.  A world id found in `ids` is replaced by the string object
    there, so the index shares the world list's strings."""
    lists: defaultdict[str, list[str]] = defaultdict(list)
    for u, v in pairs:
        lists[ids.get(u, u)].append(ids.get(v, v))
    return {u: tuple(sorted(set(vs))) for u, vs in lists.items()}


@dataclass(frozen=True)
class Premodel:
    """Raw model data; totality holds but the two model constraints may not.

    `relations` may be given as any mapping from agent to an iterable of
    (u, v) pairs; each is iterated once, into the successor index, and the
    field then holds the index as a `Relations` mapping with the same agents.
    """

    vocabulary: tuple[Atom, ...]
    agents: tuple[str, ...]
    worlds: tuple[str, ...]
    valuation: dict[str, dict[Atom, bool]]
    definitions: dict[str, dict[Atom, BoolForm]]
    relations: Mapping[str, frozenset[tuple[str, str]]]
    actual: str | None = None

    def __post_init__(self) -> None:
        if not self.worlds:
            raise ValueError("a premodel needs at least one world")
        world_set, vocab_set = set(self.worlds), set(self.vocabulary)
        for what, items, distinct in (("world ids", self.worlds, world_set),
                                      ("vocabulary entries", self.vocabulary, vocab_set),
                                      ("agents", self.agents, set(self.agents))):
            if len(distinct) != len(items):
                raise ValueError(f"duplicate {what}")
        if not isinstance(self.relations, Relations):
            ids = {w: w for w in self.worlds}
            object.__setattr__(self, "relations", Relations(
                {agent: _successor_lists(pairs, ids) for agent, pairs in self.relations.items()}))
        for agent, succ in self.relations.index.items():
            if agent not in self.agents:
                raise ValueError(f"relation for undeclared agent {agent!r}")
            for u, vs in succ.items():
                if u not in world_set or not world_set.issuperset(vs):
                    v = next(v for v in vs if u not in world_set or v not in world_set)
                    raise ValueError(f"relation {agent}: unknown world in ({u}, {v})")
        for w in self.worlds:
            for name, table in (("valuation", self.valuation), ("def", self.definitions)):
                if w not in table:
                    raise ValueError(f"world {w!r} missing its {name} table")
                if set(table[w]) != vocab_set:
                    raise ValueError(f"{name} at world {w!r} is not total on the vocabulary")
        for w in self.worlds:
            for a, image in self.definitions[w].items():
                extra = vocabulary(image) - vocab_set
                if extra:
                    raise ValueError(
                        f"definition of {a} at {w!r} uses undeclared atoms "
                        f"{sorted(x.name for x in extra)}"
                    )
        if self.actual is not None and self.actual not in world_set:
            raise ValueError(f"actual world {self.actual!r} is not a world")

    def successors(self, agent: str, world: str) -> tuple[str, ...]:
        """The agent's successors of the world, sorted; an index lookup."""
        try:
            return self.relations.index[agent].get(world, ())
        except KeyError:
            if agent in self.agents:
                return ()
            raise ValueError(f"unknown agent {agent!r}") from None


class Model(Premodel):
    """A premodel that passed (or provably preserves) both model constraints."""

    def __post_init__(self) -> None:
        """Skip the premodel shape checks.  A Model is only built by
        `validate`, from a Premodel that passed them, or by `restrict`, from
        a Model, keeping some of its worlds and the pairs between them; both
        hand over data that already has the checked shape, with relations
        already held as a `Relations` index."""


@dataclass(frozen=True)
class Violation:
    world: str
    kind: str        # "circular-definition" | "valuation-mismatch"
    atom: Atom
    detail: str

    def __str__(self) -> str:
        return f"world {self.world}: {self.detail}"


class InvalidModelError(ValueError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(f"premodel violates the model constraints:\n{lines}")


def unravel(model: Premodel, world: str, P: BoolForm) -> BoolForm:
    """Replace every atom of P by its definition at the world (one pass).

    On a valid model the images mention only self-evident atoms, so one pass
    is already a fixpoint.
    """
    image = model.definitions[world].__getitem__
    try:
        return substitute(P, image)
    except KeyError as e:
        raise ValueError(f"unknown atom {e.args[0]} at world {world!r}") from None


def truth(P: BoolForm, vals) -> bool:
    """Truth value of P under `vals`; KeyError names the first unvalued atom
    whose value is needed, as conjunctions short-circuit from the left."""
    if type(P) is Atom:
        return vals[P]
    values: list = []  # a bool, or an unvalued atom that stands for its KeyError
    for g in postorder(P):
        kind = type(g)
        if kind is Atom:
            values.append(vals.get(g, g))
        elif kind is Neg:
            if type(values[-1]) is not Atom:
                values[-1] = not values[-1]
        elif kind is And:
            right = values.pop()
            if type(values[-1]) is not Atom and values[-1]:
                values[-1] = right
        else:
            raise TypeError(f"not a boolean formula: {g!r}")
    if type(values[0]) is Atom:
        raise KeyError(values[0])
    return values[0]


def eval_bool(model: Premodel, world: str, P: BoolForm) -> bool:
    """Standard truth-table lifting of the world's valuation."""
    try:
        return truth(P, model.valuation[world])
    except KeyError as e:
        raise ValueError(f"unknown atom {e.args[0]} at world {world!r}") from None


class Cnf:
    """Clauses over variables 1..size; `leaves` maps each leaf to its variable."""

    def __init__(self) -> None:
        self.leaves: dict = {}
        self.clauses: list[tuple[int, ...]] = []
        self.size = 0

    def literal(self, f) -> int:
        """Literal equivalent to f; conjunctions get a gate variable.

        Variables are numbered left side, right side, then the gate.  The
        walk keeps its own stack, so the depth of `~` and `&` is unbounded; a
        leaf is looked up by its hash, which recurses.
        """
        values: list[int] = []
        todo: list = [f]  # a formula, or the sign of a conjunction whose sides are on values
        while todo:
            f, sign = todo.pop(), 1
            while type(f) is Neg:
                f, sign = f.inner, -sign
            if type(f) is And:
                todo += (sign, f.right, f.left)
            elif type(f) is int:
                b = values.pop()
                a = values[-1]
                self.size += 1
                gate = self.size
                self.clauses += ((-gate, a), (-gate, b), (gate, -a, -b))
                values[-1] = f * gate
            else:
                var = self.leaves.get(f)
                if var is None:
                    self.size += 1
                    var = self.leaves[f] = self.size
                values.append(sign * var)
        return values[0]


def first_model(cnf: Cnf, order: list[int]) -> list | None:
    """Least model of the clauses in `order`, as a list indexed by variable.

    Only the variables in `order` are branched on; a gate variable is fixed
    by propagation once its leaves are, so `order` must cover every leaf
    that occurs in a clause.  None when the clauses are unsatisfiable.
    """
    value: list = [None] * (cnf.size + 1)
    trail: list[int] = []
    falsified_by: dict[int, list[tuple[int, ...]]] = {}
    for clause in cnf.clauses:
        for lit in clause:
            falsified_by.setdefault(-lit, []).append(clause)

    def assign(lit: int) -> bool:
        """Make lit true and propagate unit clauses; False on a conflict."""
        queue = [lit]
        while queue:
            lit = queue.pop()
            var, want = (lit, True) if lit > 0 else (-lit, False)
            if value[var] is not None:
                if value[var] != want:
                    return False
                continue
            value[var] = want
            trail.append(var)
            for clause in falsified_by.get(lit, ()):
                unit = 0
                for other in clause:
                    v = value[other if other > 0 else -other]
                    if v is None:
                        if unit:
                            break
                        unit = other
                    elif v == (other > 0):
                        break
                else:
                    if not unit:
                        return False
                    queue.append(unit)
        return True

    if not all(assign(c[0]) for c in cnf.clauses if len(c) == 1):
        return None
    decisions: list[tuple[int, int]] = []   # (index in order, trail mark) of False branches
    i, ok = 0, True
    while True:
        if ok:
            while i < len(order) and value[order[i]] is not None:
                i += 1
            if i == len(order):
                return value
            decisions.append((i, len(trail)))
            ok = assign(-order[i])
        else:
            if not decisions:
                return None
            i, mark = decisions.pop()
            for var in trail[mark:]:
                value[var] = None
            del trail[mark:]
            ok = assign(order[i])


def validate(premodel: Premodel) -> Model:
    """Check both model constraints; return the same data as a Model.

    Well-foundedness is checked directly: every atom inside a definition
    must be self-evident at that world.  The definitional-valuation link is
    checked through its atom-level criterion V_w(p) = V_w(unravel(p)).
    """
    violations: list[Violation] = []
    for w in premodel.worlds:
        defs = premodel.definitions[w]
        for a in premodel.vocabulary:
            for used in sorted(vocabulary(defs[a])):
                if defs[used] != used:
                    violations.append(Violation(
                        w, "circular-definition", a,
                        f"definition of {a} mentions {used}, whose definition is "
                        f"{text_of_bool(defs[used])} rather than itself",
                    ))
    if not violations:
        for w in premodel.worlds:
            for a in premodel.vocabulary:
                expected = eval_bool(premodel, w, unravel(premodel, w, a))
                if premodel.valuation[w][a] != expected:
                    violations.append(Violation(
                        w, "valuation-mismatch", a,
                        f"V({a}) = {premodel.valuation[w][a]} but its definition "
                        f"{text_of_bool(premodel.definitions[w][a])} evaluates to {expected}",
                    ))
    if violations:
        raise InvalidModelError(violations)
    return Model(
        premodel.vocabulary, premodel.agents, premodel.worlds,
        premodel.valuation, premodel.definitions, premodel.relations,
        premodel.actual,
    )


def restrict(model: Model, keep) -> Model:
    """Drop all worlds outside `keep`, preserving valuations and definitions.

    Restriction only removes worlds and relation pairs, so both model
    constraints (which are per-world) are preserved and the result is built
    without revalidation or shape checks.  The result's successor index is
    the model's, filtered to the kept worlds in one pass: filtering a sorted
    tuple keeps it sorted, and no relation pair is built.
    """
    keep = set(keep)
    unknown = keep.difference(model.worlds)
    if unknown:
        raise ValueError(f"cannot keep unknown worlds {sorted(unknown)}")
    if not keep:
        raise ValueError("restriction to the empty set of worlds")
    worlds = tuple(w for w in model.worlds if w in keep)
    index: dict[str, dict[str, tuple[str, ...]]] = {}
    for agent, succ in model.relations.index.items():
        child = index[agent] = {}
        for u in worlds:
            kept = tuple(filter(keep.__contains__, succ.get(u, ())))
            if kept:
                child[u] = kept
    return Model(
        model.vocabulary,
        model.agents,
        worlds,
        {w: model.valuation[w] for w in worlds},
        {w: model.definitions[w] for w in worlds},
        Relations(index),
        model.actual if model.actual in keep else None,
    )


def single_world_model(vocabulary_atoms, agents, valuation, definitions,
                       world: str = "w0") -> Model:
    """Build and validate a one-world model (reflexivity not assumed)."""
    vocab = tuple(sorted(set(vocabulary_atoms)))
    vals = {a: bool(valuation.get(a, False)) for a in vocab}
    defs = {a: definitions.get(a, a) for a in vocab}
    pm = Premodel(
        vocabulary=vocab,
        agents=tuple(sorted(set(agents))),
        worlds=(world,),
        valuation={world: vals},
        definitions={world: defs},
        relations={a: frozenset() for a in sorted(set(agents))},
        actual=world,
    )
    return validate(pm)


# ---------------------------------------------------------------------------
# File format

def premodel_to_dict(model: Premodel) -> dict:
    data: dict = {
        "vocabulary": [a.name for a in sorted(model.vocabulary)],
        "agents": sorted(model.agents),
        "worlds": [
            {
                "id": w,
                "valuation": {a.name: model.valuation[w][a] for a in sorted(model.vocabulary)},
                "def": {a.name: text_of_bool(model.definitions[w][a])
                        for a in sorted(model.vocabulary)},
            }
            for w in model.worlds
        ],
        "relations": {
            agent: sorted([u, v] for u, vs in model.relations.index.get(agent, {}).items()
                          for v in vs)
            for agent in sorted(model.agents)
        },
    }
    if model.actual is not None:
        data["actual"] = model.actual
    return data


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", bool: "true or false"}


def json_typed(value, kind: type, what: str):
    """value, if it has the JSON type kind; else a ValueError naming what."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}")
    return value


def _file_pairs(pairs, agent: str, worlds: set[str]):
    """One agent's relation in a model file: a list of pairs, each a list of
    two world ids.  Yields the pairs in file order, so an error names the
    first bad one."""
    shape = f'"relations" of {agent} must be a list of pairs of world ids'
    if not isinstance(pairs, list):
        raise ValueError(shape)
    for pair in pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(shape)
        u, v = pair
        if not isinstance(u, str) or not isinstance(v, str):
            raise ValueError(shape)
        if u not in worlds or v not in worlds:
            raise ValueError(f"relation {agent}: unknown world in ({u}, {v})")
        yield u, v


def premodel_from_dict(data: dict) -> Premodel:
    """The premodel a model file's JSON value describes; a wrong shape
    raises ValueError naming the field."""
    json_typed(data, dict, "a model file")
    try:
        vocab = tuple(Atom(json_typed(name, str, "each vocabulary entry"))
                      for name in json_typed(data["vocabulary"], list, '"vocabulary"'))
        agents = tuple(json_typed(agent, str, "each agent")
                       for agent in json_typed(data["agents"], list, '"agents"'))
        worlds = []
        valuation = {}
        definitions = {}
        for entry in json_typed(data["worlds"], list, '"worlds"'):
            w = json_typed(json_typed(entry, dict, "each world")["id"], str, 'a world "id"')
            worlds.append(w)
            valuation[w] = {Atom(name): json_typed(value, bool, '"valuation" value')
                            for name, value in json_typed(entry["valuation"], dict, '"valuation"').items()}
            definitions[w] = {Atom(name): parse_bool(json_typed(text, str, '"def" image'))
                              for name, text in json_typed(entry["def"], dict, '"def"').items()}
        declared = set(worlds)
        relations = {agent: _file_pairs(pairs, agent, declared) for agent, pairs in
                     json_typed(data.get("relations", {}), dict, '"relations"').items()}
        for agent in agents:
            relations.setdefault(agent, ())
        actual = data.get("actual")
        if actual is not None:
            json_typed(actual, str, '"actual"')
    except KeyError as e:
        raise ValueError(f"model file is missing key {e}") from None
    return Premodel(vocab, agents, tuple(worlds), valuation, definitions, relations, actual)


def dumps(model: Premodel) -> str:
    return json.dumps(premodel_to_dict(model), indent=2) + "\n"


def loads(text: str) -> Premodel:
    return premodel_from_dict(json.loads(text))


def save(model: Premodel, path) -> None:
    Path(path).write_text(dumps(model), encoding="utf-8")


def load(path) -> Premodel:
    return loads(Path(path).read_text(encoding="utf-8"))


def fixture_names() -> tuple[str, ...]:
    return _FIXTURE_NAMES


def fixture_path(name: str) -> Path:
    """Path of a shipped fixture; PALDEF_FIXTURES overrides the directory."""
    stem = name[:-5] if name.endswith(".json") else name
    if stem not in _FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(_FIXTURE_NAMES)}")
    override = os.environ.get(FIXTURE_ENV_VAR)
    base = Path(override) if override else Path(__file__).parent / "fixtures"
    return base / f"{stem}.json"

"""Semantic evaluation of the full language on validated models.

`P == Q` holds at a world when both sides unravel to the *identical* boolean
formula there; announcements restrict the model to the worlds where the
announced formula holds; `kd i P` compares the current world's unraveling of
P with each successor's; `p := P` inspects the raw definition table.
Because of that current-world comparison, the knowledge-transfer law
`(kd i P & box i (P == Q)) -> kd i Q` needs w R_i w: it holds at every world
that sees itself and can fail at one that does not.

Everything here is pure, so concurrent queries against one model are safe.
"""

from __future__ import annotations

from .models import Model, restrict, unravel
from .syntax import (
    And, AnnF, Atom, BoxF, DefIsF, EquivF, Form, KdF, Neg, form_agents,
    form_vocabulary,
)

__all__ = ["evaluate", "eval_global", "extension_table", "check_query"]


def check_query(model: Model, world: str, formula: Form) -> None:
    """Reject queries that mention undeclared worlds, atoms, or agents."""
    if world not in model.worlds:
        raise ValueError(f"unknown world {world!r}")
    missing_atoms = form_vocabulary(formula) - set(model.vocabulary)
    if missing_atoms:
        raise ValueError(
            f"formula mentions undeclared atoms {sorted(a.name for a in missing_atoms)}"
        )
    missing_agents = form_agents(formula) - set(model.agents)
    if missing_agents:
        raise ValueError(f"formula mentions undeclared agents {sorted(missing_agents)}")


def evaluate(model: Model, world: str, formula: Form, _checked: bool = False) -> bool:
    if not _checked:
        check_query(model, world, formula)
    match formula:
        case Atom():
            return model.valuation[world][formula]
        case EquivF(left, right):
            return unravel(model, world, left) == unravel(model, world, right)
        case Neg(inner):
            return not evaluate(model, world, inner, _checked=True)
        case And(left, right):
            return (evaluate(model, world, left, _checked=True)
                    and evaluate(model, world, right, _checked=True))
        case BoxF(agent, inner):
            return all(evaluate(model, v, inner, _checked=True)
                       for v in model.successors(agent, world))
        case AnnF(announced, inner):
            if not evaluate(model, world, announced, _checked=True):
                return True
            surviving = eval_global(model, announced, _checked=True)
            return evaluate(restrict(model, surviving), world, inner, _checked=True)
        case KdF(agent, body):
            here = unravel(model, world, body)
            return all(unravel(model, v, body) == here
                       for v in model.successors(agent, world))
        case DefIsF(atom, body):
            if atom not in model.definitions[world]:
                raise ValueError(f"unknown atom {atom} at world {world!r}")
            return model.definitions[world][atom] == body
    raise TypeError(f"not a formula: {formula!r}")


def eval_global(model: Model, formula: Form, _checked: bool = False) -> list[str]:
    """Worlds (in model order) where the formula holds."""
    if not _checked and model.worlds:
        check_query(model, model.worlds[0], formula)
    return [w for w in model.worlds
            if evaluate(model, w, formula, _checked=True)]


def _subformulas(formula: Form) -> list[Form]:
    """The modal-layer subformulas, innermost first, each once: the nodes of
    the formula outside the boolean operands of `==`, `kd` and `:=`."""
    out = []
    todo = [formula]
    while todo:
        g = todo.pop()
        out.append(g)
        kind = type(g)
        if kind is Neg or kind is BoxF:
            todo.append(g.inner)
        elif kind is And:
            todo += (g.left, g.right)
        elif kind is AnnF:
            todo += (g.announced, g.inner)
    return list(dict.fromkeys(reversed(out)))


def extension_table(model: Model, formula: Form) -> list[tuple[Form, list[str]]]:
    """Per-world extension of every subformula, innermost first.

    Subformulas under an announcement are tabulated against the original
    model; this is a diagnostic view, not part of the semantics.
    """
    return [(sub, eval_global(model, sub)) for sub in _subformulas(formula)]

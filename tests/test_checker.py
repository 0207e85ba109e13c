"""Semantic evaluation on the shipped fixtures and random models."""

import random

import pytest

from paldef.checker import eval_global, evaluate, extension_table
from paldef.models import Premodel, fixture_names, fixture_path, load, validate
from paldef.syntax import (
    Atom, EquivF, mk_iff, mk_imp, parse_form, text_of_form,
)

from helpers import model_pool, random_bool

p, q, r, s = (Atom(n) for n in "pqrs")


@pytest.fixture(scope="module")
def figs():
    return {name: validate(load(fixture_path(name))) for name in fixture_names()}


@pytest.fixture(scope="module")
def pool():
    return model_pool(random.Random(30), 40)


class TestFigureExamples:
    def test_knowing_without_understanding(self, figs):
        m = figs["fig1"]
        assert evaluate(m, "middle", parse_form(
            "box i p & (p == q) & ~box i (p == q) & ~box i q"))

    def test_fig1_after_announcement(self, figs):
        m = figs["fig1"]
        assert evaluate(m, "middle", parse_form("[p <-> q] box i (p <-> q)"))
        assert not evaluate(m, "middle", parse_form("[p <-> q] box i (p == q)"))

    def test_understanding_without_knowing(self, figs):
        m = figs["fig2"]
        f = parse_form("box i (p == q) & box i (p <-> q) & ~box i p")
        assert all(evaluate(m, w, f) for w in m.worlds)

    def test_understanding_different_parts(self, figs):
        m = figs["fig3"]
        for text in [
            "box a (p == (q & r)) & box b (p == (q & r))",
            "box b (p == (~q1 & r)) & ~box a (p == (~q1 & r))",
            "box a (p == (q & ~r1)) & ~box b (p == (q & ~r1))",
            "[r == ~r1][q == ~q1](box a (p == (~q1 & ~r1)) & box b (p == (~q1 & ~r1)))",
        ]:
            assert evaluate(m, "middle", parse_form(text)), text

    def test_consensus_with_misunderstanding(self, figs):
        m = figs["fig4"]
        for text in [
            "p & box i p & box j p",
            "box i ((p == r) & r & ~q)",
            "box j ((p == q) & q & ~r)",
        ]:
            assert evaluate(m, "middle", parse_form(text)), text

    def test_association_matters_for_equivalence(self, figs):
        f = parse_form("(p & (q & r)) != ((p & q) & r)")
        for m in (figs["fig1"], figs["fig4"]):
            for w in m.worlds:
                assert evaluate(m, w, f)

    def test_reflexivity_of_equivalence(self, figs):
        f = parse_form("(p & ~q) == (p & ~q)")
        m = figs["fig1"]
        assert all(evaluate(m, w, f) for w in m.worlds)


class TestEvalGlobal:
    def test_fig1_biconditional(self, figs):
        assert eval_global(figs["fig1"], parse_form("p <-> q")) == ["left", "middle"]

    def test_tautology_holds_everywhere(self, figs):
        m = figs["fig2"]
        assert eval_global(m, parse_form("p | ~p")) == list(m.worlds)

    def test_fig2_atom(self, figs):
        assert eval_global(figs["fig2"], parse_form("p")) == ["left"]


class TestEquivalenceBehaviour:
    def test_equiv_is_equivalence_relation(self, pool):
        rng = random.Random(31)
        for m in pool[:15]:
            for _ in range(10):
                a = random_bool(rng, m.vocabulary, 5)
                b = random_bool(rng, m.vocabulary, 5)
                c = random_bool(rng, m.vocabulary, 5)
                for w in m.worlds:
                    assert evaluate(m, w, EquivF(a, a))
                    if evaluate(m, w, EquivF(a, b)):
                        assert evaluate(m, w, EquivF(b, a))
                        if evaluate(m, w, EquivF(b, c)):
                            assert evaluate(m, w, EquivF(a, c))

    def test_equiv_implies_biconditional(self, pool):
        rng = random.Random(32)
        for m in pool[:15]:
            for _ in range(10):
                a = random_bool(rng, m.vocabulary, 5)
                b = random_bool(rng, m.vocabulary, 5)
                f = mk_imp(EquivF(a, b), mk_iff(a, b))
                for w in m.worlds:
                    assert evaluate(m, w, f)

    def test_announcement_decomposition(self, pool):
        from paldef.models import restrict
        rng = random.Random(33)
        for m in pool[:15]:
            for _ in range(8):
                from helpers import random_form
                ann = random_form(rng, m.vocabulary, m.agents, 2)
                body = random_form(rng, m.vocabulary, m.agents, 2)
                surviving = eval_global(m, ann)
                for w in m.worlds:
                    direct = evaluate(m, w, parse_form(
                        f"[{text_of_form(ann)}] {text_of_form(body)}"))
                    if w not in surviving:
                        assert direct
                    else:
                        assert direct == evaluate(
                            restrict(m, surviving), w, body)


class TestKnowingTheDefinition:
    def test_definition_implies_equivalence(self, pool):
        rng = random.Random(34)
        for m in pool:
            for _ in range(6):
                atom = rng.choice(m.vocabulary)
                body = random_bool(rng, m.vocabulary, 5)
                f = parse_form(f"(({atom} := {body}) -> ({atom} == {body}))")
                for w in m.worlds:
                    assert evaluate(m, w, f)

    def test_definition_unique(self, pool):
        rng = random.Random(35)
        for m in pool:
            for _ in range(6):
                atom = rng.choice(m.vocabulary)
                b1 = random_bool(rng, m.vocabulary, 5)
                b2 = random_bool(rng, m.vocabulary, 5)
                if b1 == b2:
                    continue
                f = parse_form(f"(({atom} := {b1}) -> ~({atom} := {b2}))")
                for w in m.worlds:
                    assert evaluate(m, w, f)

    def test_known_definition_is_boxed(self, pool):
        rng = random.Random(36)
        for m in pool:
            for _ in range(6):
                atom = rng.choice(m.vocabulary)
                body = random_bool(rng, m.vocabulary, 5)
                agent = rng.choice(m.agents)
                f = parse_form(
                    f"((({atom} := {body}) & kd {agent} {atom}) "
                    f"-> box {agent} ({atom} := {body}))")
                for w in m.worlds:
                    assert evaluate(m, w, f)

    def test_kd_transfer_needs_reflexivity(self):
        # (kd i P & box i (P == Q)) -> kd i Q fails in plain K semantics:
        # nothing links the evaluation world's own unraveling of Q to its
        # successors' unless the world sees itself.
        m = validate(Premodel(
            vocabulary=(p, q, r, s),
            agents=("i",),
            worlds=("w", "v"),
            valuation={"w": {p: True, q: True, r: True, s: True},
                       "v": {p: True, q: True, r: True, s: True}},
            definitions={"w": {p: r, q: s, r: r, s: s},
                         "v": {p: r, q: r, r: r, s: s}},
            relations={"i": frozenset({("w", "v")})},
            actual="w",
        ))
        f = parse_form("(kd i p & box i (p == q)) -> kd i q")
        assert not evaluate(m, "w", f)
        looped = validate(Premodel(
            m.vocabulary, m.agents, m.worlds, m.valuation, m.definitions,
            {"i": frozenset({("w", "v"), ("w", "w")})}, m.actual))
        assert evaluate(looped, "w", f)

    def test_vacuous_box_and_kd(self, figs):
        # fig4's side worlds have no outgoing arrows at all
        m = figs["fig4"]
        for text in ["box i (p & ~p)", "box j (q != q)", "kd i p", "kd j q"]:
            assert evaluate(m, "left", parse_form(text))
            assert evaluate(m, "right", parse_form(text))


class TestQueryChecking:
    def test_unknown_world(self, figs):
        with pytest.raises(ValueError):
            evaluate(figs["fig1"], "centre", parse_form("p"))

    def test_unknown_atom(self, figs):
        with pytest.raises(ValueError):
            evaluate(figs["fig2"], "left", parse_form("r"))

    def test_unknown_agent(self, figs):
        with pytest.raises(ValueError):
            evaluate(figs["fig1"], "middle", parse_form("box j p"))

    def test_extension_table_covers_subformulas(self, figs):
        table = extension_table(figs["fig2"], parse_form("box i (p == q) & ~box i p"))
        # each modal subformula once, innermost first: the modal p of `box i p`
        # is listed, the operands of `==` are not
        assert [text_of_form(sub) for sub, _ in table] == [
            "(p == q)", "box i (p == q)", "p", "box i p", "~box i p",
            "(box i (p == q) & ~box i p)"]
        exts = dict((text_of_form(subf), ext) for subf, ext in table)
        assert exts["p"] == ["left"]

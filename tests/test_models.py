"""Model constraints, unraveling, restriction, and the file format."""

import dataclasses
import importlib.util
import json
import random
from pathlib import Path

import pytest

import paldef.checker
from paldef.checker import eval_global
from paldef.models import (
    Cnf, InvalidModelError, Model, Premodel, Relations, dumps, eval_bool, first_model,
    fixture_names, fixture_path, load, loads, restrict, save,
    single_world_model, truth, unravel, validate,
)
from paldef.syntax import And, Atom, Neg, parse_bool, parse_form, vocabulary

from helpers import all_bools, random_bool, random_valid_model, truth_table_models

p, q, r, s = (Atom(n) for n in "pqrs")


@pytest.fixture(scope="module")
def figs():
    return {name: validate(load(fixture_path(name))) for name in fixture_names()}


class TestFixtures:
    def test_all_fixtures_validate(self, figs):
        assert set(figs) == {"fig1", "fig2", "fig3", "fig4"}

    def test_fig1_shape(self, figs):
        m = figs["fig1"]
        assert len(m.worlds) == 3 and m.agents == ("i",) and m.actual == "middle"

    def test_save_load_identity_bytes(self, figs, tmp_path):
        for name in fixture_names():
            original = fixture_path(name).read_text(encoding="utf-8")
            out = tmp_path / f"{name}.json"
            save(load(fixture_path(name)), out)
            assert out.read_text(encoding="utf-8") == original

    def test_fixture_env_override(self, figs, tmp_path, monkeypatch):
        save(figs["fig2"], tmp_path / "fig2.json")
        monkeypatch.setenv("PALDEF_FIXTURES", str(tmp_path))
        assert fixture_path("fig2") == tmp_path / "fig2.json"

    def test_generator_rebuilds_the_shipped_fixtures(self):
        spec = importlib.util.spec_from_file_location(
            "gen_fixtures", Path(__file__).resolve().parent.parent / "tools" / "gen_fixtures.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        for name in fixture_names():
            assert dumps(getattr(gen, f"build_{name}")()) == \
                fixture_path(name).read_text(encoding="utf-8"), name

    def test_fig4_has_only_drawn_arrows(self, figs):
        m = figs["fig4"]
        assert m.relations["i"] == frozenset({("middle", "left")})
        assert m.relations["j"] == frozenset({("middle", "right")})


class TestUnravel:
    def test_defined_atom(self, figs):
        assert unravel(figs["fig1"], "middle", p) == q

    def test_self_evident_atom(self, figs):
        assert unravel(figs["fig1"], "middle", q) == q

    def test_compound(self, figs):
        assert unravel(figs["fig3"], "middle", parse_bool("(q & r)")) == \
            parse_bool("(~q1 & ~r1)")

    def test_unknown_atom(self, figs):
        with pytest.raises(ValueError):
            unravel(figs["fig2"], "left", r)

    def test_idempotent_on_valid_models(self):
        rng = random.Random(20)
        for _ in range(40):
            m = random_valid_model(rng)
            for w in m.worlds:
                for f in all_bools(m.vocabulary, 7)[:80]:
                    once = unravel(m, w, f)
                    assert unravel(m, w, once) == once


class TestEvalBool:
    def test_atom(self, figs):
        assert eval_bool(figs["fig1"], "middle", p) is True

    def test_conjunction_false(self, figs):
        assert eval_bool(figs["fig2"], "right", And(p, q)) is False

    def test_contradiction(self, figs):
        for w in figs["fig1"].worlds:
            assert eval_bool(figs["fig1"], w, And(p, Neg(p))) is False


def _least_model(constraints):
    """first_model over the constraints, branching on their atoms in sorted order."""
    cnf = Cnf()
    cnf.clauses += [(cnf.literal(c),) for c in constraints]
    atoms = sorted(cnf.leaves)
    model = first_model(cnf, [cnf.leaves[a] for a in atoms])
    return None if model is None else {a: model[cnf.leaves[a]] for a in atoms}


class TestPropositionalCore:
    def test_truth_reports_an_unvalued_atom(self):
        assert truth(And(p, Neg(q)), {p: True, q: False}) is True
        with pytest.raises(KeyError):
            truth(And(p, q), {p: True})

    def test_least_model_agrees_with_truth_table(self):
        rng = random.Random(5005)
        verdicts = []
        for _ in range(300):
            constraints = [random_bool(rng, (p, q, r, s), 8) for _ in range(rng.randint(1, 6))]
            atoms = set().union(*map(vocabulary, constraints))
            least = next(truth_table_models(constraints, atoms), None)
            assert _least_model(constraints) == least, constraints
            verdicts.append(least is not None)
        assert 30 <= verdicts.count(False) <= 270

    def test_many_unit_constraints(self):
        units = [Atom(f"x{k}") for k in range(64)]
        assert _least_model(units) == {a: True for a in units}
        conjunction = units[0]
        for a in units[1:]:
            conjunction = And(conjunction, a)
        assert _least_model([conjunction]) == {a: True for a in units}
        assert _least_model(units + [Neg(units[-1])]) is None


class TestValidate:
    def flip(self, model, world, atom):
        valuation = {w: dict(model.valuation[w]) for w in model.worlds}
        valuation[world][atom] = not valuation[world][atom]
        return Premodel(model.vocabulary, model.agents, model.worlds,
                        valuation, model.definitions, model.relations,
                        model.actual)

    def test_flipped_valuation_breaks_link(self, figs):
        broken = self.flip(figs["fig1"], "middle", q)
        with pytest.raises(InvalidModelError) as err:
            validate(broken)
        kinds = {(v.world, v.atom) for v in err.value.violations}
        assert ("middle", p) in kinds or ("middle", q) in kinds

    def test_definition_chain_rejected(self):
        pm = Premodel(
            vocabulary=(p, q, r),
            agents=("i",),
            worlds=("w",),
            valuation={"w": {p: True, q: True, r: True}},
            definitions={"w": {p: r, q: q, r: And(p, q)}},
            relations={"i": frozenset()},
            actual="w",
        )
        with pytest.raises(InvalidModelError) as err:
            validate(pm)
        assert any(v.kind == "circular-definition" for v in err.value.violations)

    def test_random_generator_only_builds_valid_models(self):
        rng = random.Random(21)
        for _ in range(60):
            m = random_valid_model(rng)
            assert isinstance(validate(m), Model)


class TestRestrict:
    def test_keep_everything_is_identity(self, figs):
        m = figs["fig1"]
        assert restrict(m, m.worlds) == m

    def test_fig1_announcement_drops_right(self, figs):
        m = restrict(figs["fig1"], {"left", "middle"})
        assert m.worlds == ("left", "middle")
        assert all(w != "right" and v != "right"
                   for w, v in m.relations["i"])
        assert m.actual == "middle"

    def test_fig2_keep_left_only(self, figs):
        m = restrict(figs["fig2"], {"left"})
        assert m.worlds == ("left",)
        assert m.relations["i"] == frozenset({("left", "left")})

    def test_monotone_composition(self, figs):
        m = figs["fig1"]
        assert restrict(restrict(m, {"left", "middle"}), {"middle"}) == \
            restrict(m, {"middle"})

    def test_empty_or_unknown_rejected(self, figs):
        with pytest.raises(ValueError):
            restrict(figs["fig1"], set())
        with pytest.raises(ValueError):
            restrict(figs["fig1"], {"nowhere"})
        with pytest.raises(ValueError):
            restrict(restrict(figs["fig1"], {"left"}), {"middle"})

    def test_restriction_preserves_validity(self):
        rng = random.Random(22)
        for _ in range(40):
            m = random_valid_model(rng)
            keep = [w for w in m.worlds if rng.random() < 0.6] or [m.worlds[0]]
            sub = restrict(m, keep)
            assert isinstance(validate(sub), Model)


def _scanned_successors(model, agent, world):
    return sorted(v for u, v in model.relations.get(agent, ()) if u == world)


def _nested_restrictions(rng, model, depth=3):
    """The model and a chain of random restrictions of it, each of the last."""
    out = [model]
    for _ in range(depth):
        keep = [w for w in out[-1].worlds if rng.random() < 0.7] or [out[-1].worlds[-1]]
        out.append(restrict(out[-1], keep))
    return out


def _index_test_models(figs):
    rng = random.Random(31)
    bases = list(figs.values()) + [random_valid_model(rng, max_worlds=7) for _ in range(60)]
    return [m for base in bases for m in _nested_restrictions(rng, base)]


class CountingPairs(frozenset):
    """A relation that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _counted_model(rng, n=80) -> tuple[list[CountingPairs], Model]:
    """The CountingPairs relations of a random n-world model, and the valid
    model (every atom self-evident) built from them."""
    worlds = tuple(f"w{k}" for k in range(n))
    vocab = (p, q)
    relations = {agent: CountingPairs((u, v) for u in worlds for v in worlds
                                      if rng.random() < 0.35)
                 for agent in ("i", "j")}
    model = validate(Premodel(
        vocab, ("i", "j"), worlds,
        {w: {a: rng.random() < 0.5 for a in vocab} for w in worlds},
        {w: {a: a for a in vocab} for w in worlds},
        relations, worlds[0]))
    return list(relations.values()), model


def _count_pair_set_builds(monkeypatch) -> list[str]:
    """The agents whose pair sets `Relations` builds from now on, one entry
    per build."""
    builds = []
    build = Relations.__getitem__

    def counting_build(self, agent):
        builds.append(agent)
        return build(self, agent)

    monkeypatch.setattr(Relations, "__getitem__", counting_build)
    return builds


class TestSuccessorIndex:
    def test_index_agrees_with_relation_scan(self, figs):
        for m in _index_test_models(figs):
            for agent in m.agents:
                for w in m.worlds:
                    assert list(m.successors(agent, w)) == _scanned_successors(m, agent, w)
            with pytest.raises(ValueError):
                m.successors("k", m.worlds[0])

    def test_agent_without_relation_entry(self):
        pm = Premodel((p,), ("i", "j"), ("u", "v"), {"u": {p: True}, "v": {p: False}},
                      {"u": {p: p}, "v": {p: p}}, {"i": frozenset({("u", "v"), ("u", "u")})})
        for m in (pm, validate(pm), restrict(validate(pm), {"u"})):
            assert m.successors("j", "u") == m.successors("j", "v") == ()
            assert list(m.successors("i", "u")) == _scanned_successors(m, "i", "u")
            assert "j" not in m.relations

    def test_results_rebuild_as_premodels(self, figs):
        """Model skips the shape checks; its data must still pass them."""
        names = [f.name for f in dataclasses.fields(Premodel)]
        for m in _index_test_models(figs):
            rebuilt = Premodel(**{name: getattr(m, name) for name in names})
            assert isinstance(validate(rebuilt), Model)

    def test_box_lookups_iterate_each_relation_once(self, monkeypatch):
        pair_sets, m = _counted_model(random.Random(41))
        assert [pairs.iterations for pairs in pair_sets] == [1, 1]
        builds = _count_pair_set_builds(monkeypatch)
        eval_global(m, parse_form("box i box j p"))
        assert builds == []
        assert [pairs.iterations for pairs in pair_sets] == [1, 1]

    def test_announcement_reads_the_parent_index(self, monkeypatch):
        pair_sets, m = _counted_model(random.Random(42))
        builds = _count_pair_set_builds(monkeypatch)
        restricted = []

        def recording_restrict(model, keep):
            restricted.append((model, restrict(model, keep)))
            return restricted[-1][1]

        monkeypatch.setattr(paldef.checker, "restrict", recording_restrict)
        eval_global(m, parse_form("[p] box i q"))
        assert restricted
        assert builds == []
        assert [pairs.iterations for pairs in pair_sets] == [1, 1]
        for parent, sub in restricted:
            kept = set(sub.worlds)
            for agent in sub.agents:
                for w in sub.worlds:
                    assert sub.successors(agent, w) == tuple(
                        v for v in parent.successors(agent, w) if v in kept)

    def test_relations_read_as_pair_sets(self, figs):
        m = figs["fig3"]
        assert m.relations == {"a": {("left", "left"), ("left", "middle"),
                                     ("middle", "left"), ("middle", "middle"),
                                     ("right", "right")},
                               "b": {("left", "left"), ("middle", "middle"),
                                     ("middle", "right"), ("right", "middle"),
                                     ("right", "right")}}
        assert all(type(pairs) is frozenset for pairs in m.relations.values())
        assert list(m.relations) == ["a", "b"] and "c" not in m.relations
        with pytest.raises(TypeError):
            m.relations["c"] = frozenset()


class TestFileFormat:
    def test_missing_def_entry(self, figs):
        data = json.loads(dumps(figs["fig2"]))
        del data["worlds"][0]["def"]["p"]
        with pytest.raises(ValueError):
            loads(json.dumps(data))

    def test_duplicate_world_ids(self, figs):
        data = json.loads(dumps(figs["fig2"]))
        data["worlds"][1]["id"] = data["worlds"][0]["id"]
        with pytest.raises(ValueError):
            loads(json.dumps(data))

    @pytest.mark.parametrize("field,value", [
        ("vocabulary", ["p", "p"]), ("agents", ["i", "i"])])
    def test_duplicate_vocabulary_or_agents(self, figs, field, value):
        data = json.loads(dumps(figs["fig2"]))
        data[field] = value
        with pytest.raises(ValueError, match="duplicate"):
            loads(json.dumps(data))

    @pytest.mark.parametrize("pairs", [["ab", "ba"], [["a", "b", "a"]], [["a", 1]], "ab"])
    def test_relation_pairs_are_lists_of_two_world_ids(self, pairs):
        data = {"vocabulary": [], "agents": ["i"], "relations": {"i": pairs},
                "worlds": [{"id": w, "valuation": {}, "def": {}} for w in ("a", "b")]}
        with pytest.raises(ValueError, match='"relations" of i'):
            loads(json.dumps(data))

    def test_relation_over_unknown_world(self, figs):
        data = json.loads(dumps(figs["fig2"]))
        data["relations"]["i"].append(["left", "bogus"])
        with pytest.raises(ValueError):
            loads(json.dumps(data))

    def test_unknown_world_error_names_the_first_bad_pair(self, figs):
        bad = [["x3", "left"], ["left", "x1"], ["left", "x4"], ["x2", "x2"]]
        for k, (u, v) in enumerate(bad):
            data = json.loads(dumps(figs["fig2"]))
            data["relations"]["i"][1:1] = bad[k:] + bad[:k]
            with pytest.raises(ValueError) as err:
                loads(json.dumps(data))
            assert str(err.value) == f"relation i: unknown world in ({u}, {v})"

    def test_premodel_checks_relations_built_in_python(self, figs):
        m = figs["fig2"]
        left_only = (m.vocabulary, m.agents, ("left",), {"left": m.valuation["left"]},
                     {"left": m.definitions["left"]})
        for relations, message in (({"i": {("left", "x3")}}, r"unknown world in \(left, x3\)"),
                                   ({"i": {("x3", "left")}}, r"unknown world in \(x3, left\)"),
                                   (m.relations, r"unknown world in \(left, right\)"),
                                   ({"k": set()}, "undeclared agent 'k'")):
            with pytest.raises(ValueError, match=message):
                Premodel(*left_only, relations)

    def test_duplicate_pairs_are_kept_once(self):
        text = fixture_path("fig2").read_text(encoding="utf-8")
        data = json.loads(text)
        data["relations"]["i"][1:1] = [["left", "right"], ["left", "left"]]
        data["relations"]["i"].append(["right", "left"])
        m = loads(json.dumps(data))
        assert m.successors("i", "left") == m.successors("i", "right") == ("left", "right")
        assert dumps(m) == text

    def test_undeclared_atom_in_definition(self, figs):
        data = json.loads(dumps(figs["fig2"]))
        data["worlds"][0]["def"]["p"] = "(q & z)"
        with pytest.raises(ValueError):
            loads(json.dumps(data))

    def test_round_trip_random_models(self):
        rng = random.Random(23)
        for _ in range(25):
            m = random_valid_model(rng)
            assert loads(dumps(m)) == Premodel(
                m.vocabulary, m.agents, m.worlds, m.valuation,
                m.definitions, m.relations, m.actual)

    def test_relation_pairs_share_the_world_ids(self, figs):
        for m in figs.values():
            loaded = loads(dumps(m))
            ids = {id(w) for w in loaded.worlds}
            assert all(id(u) in ids and id(v) in ids
                       for pairs in loaded.relations.values() for u, v in pairs)


class TestConstraintOneReduction:
    """The atom-level criterion stands in for the quantified constraint."""

    def quantified_constraint_holds(self, model, max_len=9) -> bool:
        for w in model.worlds:
            groups: dict = {}
            for f in all_bools(model.vocabulary, max_len):
                key = unravel(model, w, f)
                value = eval_bool(model, w, f)
                if groups.setdefault(key, value) != value:
                    return False
        return True

    def test_fixtures_satisfy_quantified_form(self, figs):
        for m in figs.values():
            assert self.quantified_constraint_holds(m)

    def test_agreement_on_random_and_broken_models(self):
        rng = random.Random(24)
        agreements = 0
        for _ in range(30):
            m = random_valid_model(rng)
            assert self.quantified_constraint_holds(m)
            agreements += 1
            # break it: flip a defined atom's valuation somewhere
            w = rng.choice(m.worlds)
            defined = [a for a in m.vocabulary if m.definitions[w][a] != a]
            if not defined:
                continue
            atom = rng.choice(defined)
            valuation = {u: dict(m.valuation[u]) for u in m.worlds}
            valuation[w][atom] = not valuation[w][atom]
            broken = Premodel(m.vocabulary, m.agents, m.worlds, valuation,
                              m.definitions, m.relations, m.actual)
            with pytest.raises(InvalidModelError):
                validate(broken)
            assert not self.quantified_constraint_holds(broken)
            # the witnessing pair is p against its own definition
            assert unravel(broken, w, atom) == unravel(broken, w, m.definitions[w][atom])
            assert eval_bool(broken, w, atom) != \
                eval_bool(broken, w, m.definitions[w][atom])
        assert agreements == 30


class TestSingleWorld:
    def test_builder_fills_defaults(self):
        m = single_world_model((p, q), ("i",), {p: True, q: True}, {p: q})
        assert m.valuation["w0"] == {p: True, q: True}
        assert m.definitions["w0"] == {p: q, q: q}
        assert m.actual == "w0"

    def test_builder_rejects_inconsistent_valuation(self):
        with pytest.raises(InvalidModelError):
            single_world_model((p, q), ("i",), {p: True}, {p: q})

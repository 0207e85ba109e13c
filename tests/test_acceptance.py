"""Acceptance suite: one test (or test group) per acceptance criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  All randomized suites are seeded and deterministic.
"""

import itertools
import random
from pathlib import Path

import pytest

from paldef.checker import eval_global, evaluate
from paldef.definitions import literal_sat, merge
from paldef.models import (
    Model, Premodel, dumps, eval_bool, fixture_names, fixture_path, load,
    loads, single_world_model, unravel, validate,
)
from paldef.proof import (
    AXIOM_NAMES, reduce_announcements, satisfiable, valid, verify_proof,
    witness_to_proof,
)
from paldef.syntax import (
    And, AnnF, Atom, BoolForm, BoxF, DefIsF, EquivF, Form, KdF, Neg, OccSubst,
    apply_occ_subst, apply_simultaneous, is_circular, length, mk_iff, mk_imp,
    occurrences, parse_bool, parse_form, text_of_form, vocabulary,
)

from helpers import (
    ATOMS, AGENTS, Depth1Oracle, all_bools, enumerate_depth1_forms,
    form_nodes, modal_depth, model_pool, random_bool, random_form,
    random_valid_model,
)

p, q, r, s = (Atom(n) for n in "pqrs")


@pytest.fixture(scope="module")
def figs():
    return {name: validate(load(fixture_path(name))) for name in fixture_names()}


@pytest.fixture(scope="module")
def suite_pool():
    # |W| <= 4, |Prop| <= 4, definition images of length <= 5
    return model_pool(random.Random(1000), 60, max_worlds=4, n_atoms=4, def_len=5)


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# Criterion 1: figure fixtures, exact

def test_criterion_01_figure_fixtures(figs):
    claims = {
        "fig1": [("middle", "box i p & (p == q) & ~box i (p == q) & ~box i q"),
                 ("middle", "[p <-> q] box i (p <-> q)"),
                 ("middle", "~([p <-> q] box i (p == q))")],
        "fig2": [("left", "box i (p == q) & box i (p <-> q) & ~box i p"),
                 ("right", "box i (p == q) & box i (p <-> q) & ~box i p")],
        "fig3": [("middle", "box a (p == (q & r)) & box b (p == (q & r))"),
                 ("middle", "box b (p == (~q1 & r)) & ~box a (p == (~q1 & r))"),
                 ("middle", "box a (p == (q & ~r1)) & ~box b (p == (q & ~r1))"),
                 ("middle", "[r == ~r1][q == ~q1]"
                            "(box a (p == (~q1 & ~r1)) & box b (p == (~q1 & ~r1)))")],
        "fig4": [("middle", "p & box i p & box j p"),
                 ("middle", "box i ((p == r) & r & ~q)"),
                 ("middle", "box j ((p == q) & q & ~r)")],
    }
    for name, assertions in claims.items():
        model = figs[name]
        for world, text in assertions:
            f = parse_form(text)
            assert evaluate(model, world, f), (name, world, text)
            assert not evaluate(model, world, Neg(f)), (name, world, text)
    # announcement mechanics behind the fig1 claim
    assert eval_global(figs["fig1"], parse_form("p <-> q")) == ["left", "middle"]
    _report("CRITERION 1 (figure fixtures)")


# ---------------------------------------------------------------------------
# Criterion 2: syntactic measures, exact

def test_criterion_02_syntactic_measures():
    assert length(Neg(p)) == 2
    assert length(parse_bool("(p & (p & q))")) == 9
    assert merge(parse_bool("(p & (q & r))"), parse_bool("(~s & t)")) == \
        parse_bool("(~s & (q & r))")
    assert apply_occ_subst(OccSubst(2, p, And(q, r)), And(p, p)) == \
        parse_bool("(p & (q & r))")
    assert apply_simultaneous(
        [OccSubst(2, p, And(q, r)), OccSubst(1, q, Neg(r))],
        parse_bool("((p & p) & q)")) == parse_bool("((p & (q & r)) & ~r)")
    _report("CRITERION 2 (syntactic measures)")


# ---------------------------------------------------------------------------
# Criterion 3: circularity pipeline, exact

def test_criterion_03_circularity_pipeline():
    lits = [EquivF(p, And(q, r)),
            EquivF(q, And(p, r)),
            EquivF(s, p)]
    result = literal_sat(lits)
    assert not result.satisfiable and result.reason == "circular"
    witness = result.witness
    assert witness.conclusion == EquivF(p, parse_bool("((p & r) & r)"))
    assert is_circular(witness.conclusion.left, witness.conclusion.right)
    assert witness.replay() == witness.conclusion
    proof = witness_to_proof(witness, lits)
    outcome = verify_proof(proof)
    assert outcome.ok, str(outcome)
    _report("CRITERION 3 (circularity pipeline)")


# ---------------------------------------------------------------------------
# Criterion 4: soundness suite

def _taut_templates():
    return [
        lambda a, b: mk_imp(a, a),
        lambda a, b: Neg(And(a, Neg(a))),
        lambda a, b: mk_imp(And(a, b), a),
        lambda a, b: mk_imp(And(a, b), b),
        lambda a, b: mk_imp(a, mk_imp(b, a)),
        lambda a, b: mk_imp(And(mk_imp(a, b), a), b),
        lambda a, b: mk_iff(Neg(Neg(a)), a),
        lambda a, b: mk_iff(Neg(And(a, b)), Neg(And(b, a))),
    ]


def _schema_instance(rng, name, atoms, agents) -> Form:
    def bf(n=5):
        return random_bool(rng, atoms, n)

    def ff(depth=2, ann=True):
        return random_form(rng, atoms, agents, depth, allow_ann=ann)

    agent = rng.choice(agents)
    if name == "K":
        a, b = ff(), ff()
        return mk_imp(BoxF(agent, mk_imp(a, b)),
                      mk_imp(BoxF(agent, a), BoxF(agent, b)))
    if name == "reduction-atom":
        ann, body = ff(), rng.choice(atoms)
        return mk_iff(AnnF(ann, body), mk_imp(ann, body))
    if name == "reduction-equiv":
        ann, body = ff(), EquivF(bf(), bf())
        return mk_iff(AnnF(ann, body), mk_imp(ann, body))
    if name == "reduction-neg":
        ann, inner = ff(), ff()
        return mk_iff(AnnF(ann, Neg(inner)),
                      mk_imp(ann, Neg(AnnF(ann, inner))))
    if name == "reduction-and":
        ann, x, y = ff(), ff(), ff()
        return mk_iff(AnnF(ann, And(x, y)), And(AnnF(ann, x), AnnF(ann, y)))
    if name == "reduction-box":
        ann, inner = ff(), ff()
        return mk_iff(AnnF(ann, BoxF(agent, inner)),
                      mk_imp(ann, BoxF(agent, mk_imp(ann, AnnF(ann, inner)))))
    if name == "reduction-comp":
        ann, second, body = ff(), ff(), ff()
        return mk_iff(AnnF(ann, AnnF(second, body)),
                      AnnF(And(ann, AnnF(ann, second)), body))
    if name == "reflexivity":
        a = bf()
        return EquivF(a, a)
    if name == "symmetry":
        a, b = bf(), bf()
        return mk_imp(EquivF(a, b), EquivF(b, a))
    if name == "transitivity":
        a, b, c = bf(), bf(), bf()
        return mk_imp(And(EquivF(a, b), EquivF(b, c)), EquivF(a, c))
    if name == "equivalence":
        a, b = bf(), bf()
        return mk_imp(EquivF(a, b), mk_iff(a, b))
    if name == "occurrence-substitution":
        atom = rng.choice(atoms)
        while True:
            target = bf(9)
            if occurrences(atom, target):
                break
        k = rng.randint(1, occurrences(atom, target))
        image, lhs = bf(), bf()
        return mk_imp(And(EquivF(atom, image), EquivF(lhs, target)),
                      EquivF(lhs, apply_occ_subst(OccSubst(k, atom, image), target)))
    if name == "pattern-neg":
        a, b = bf(), bf()
        return mk_iff(EquivF(Neg(a), Neg(b)), EquivF(a, b))
    if name == "pattern-and":
        a, b, c, d = bf(), bf(), bf(), bf()
        return mk_iff(EquivF(And(a, b), And(c, d)),
                      And(EquivF(a, c), EquivF(b, d)))
    if name == "pattern-mismatch":
        return Neg(EquivF(Neg(bf()), And(bf(), bf())))
    if name == "non-circularity":
        atom = rng.choice(atoms)
        while True:
            body = bf(9)
            if atom in vocabulary(body) and body != atom:
                break
        return Neg(EquivF(atom, body))
    if name == "taut":
        template = rng.choice(_taut_templates())
        return template(ff(), ff())
    raise ValueError(name)


def test_criterion_04_soundness_suite(suite_pool):
    rng = random.Random(2000)
    counterexamples = []
    per_schema = 500
    for offset, name in enumerate(AXIOM_NAMES):
        for index in range(per_schema):
            instance = _schema_instance(rng, name, ATOMS, AGENTS)
            for model in (suite_pool[(index * 7 + offset) % len(suite_pool)],
                          suite_pool[(index * 13 + 1) % len(suite_pool)]):
                for world in model.worlds:
                    if not evaluate(model, world, instance):
                        counterexamples.append((name, world, text_of_form(instance)))
    assert not counterexamples, counterexamples[:5]
    _report("CRITERION 4 (soundness, 500 instances x 17 schemas)")


# ---------------------------------------------------------------------------
# Criterion 5: reduction suite

def test_criterion_05_reduction_suite(suite_pool):
    rng = random.Random(3000)
    pool = model_pool(random.Random(3001), 15, n_atoms=3)
    mismatches = []
    for _ in range(220):
        f = random_form(rng, ATOMS[:3], AGENTS, rng.randint(1, 4), allow_ann=True)
        g = reduce_announcements(f)
        for model in pool:
            for world in model.worlds:
                if evaluate(model, world, f) != evaluate(model, world, g):
                    mismatches.append((world, text_of_form(f)))
    assert not mismatches, mismatches[:5]
    _report("CRITERION 5 (announcement reduction, 220 formulas, every world "
            "of every pool model)")


# ---------------------------------------------------------------------------
# Criterion 6: tableau certificates and bounded-oracle agreement

def _certificate_ok(f: Form, outcome) -> bool:
    model = outcome.model
    return isinstance(validate(Premodel(
        model.vocabulary, model.agents, model.worlds, model.valuation,
        model.definitions, model.relations, model.actual)), Model) \
        and evaluate(model, outcome.world, f)


def test_criterion_06_tableau_certificates_and_agreement():
    oracle = Depth1Oracle()
    atoms = (p, q)

    # exhaustive class: every announcement-free formula of modal depth <= 1
    # over two atoms and one agent, up to printed length 12
    exhaustive = enumerate_depth1_forms(atoms, "i", 12)
    assert len(exhaustive) > 5000

    # sampled widening: random trees of at most 12 nodes from the same
    # fragment, which reach deeper nesting than the length bound allows
    rng = random.Random(4000)
    sampled = []
    while len(sampled) < 2000:
        f = random_form(rng, atoms, ("i",), rng.randint(0, 3))
        if form_nodes(f) <= 12 and modal_depth(f) <= 1:
            sampled.append(f)

    bad_certificates = []
    disagreements = []
    n_sat = n_unsat = 0
    for f in itertools.chain(exhaustive, sampled):
        outcome = satisfiable(f)
        if outcome.satisfiable:
            n_sat += 1
            if not _certificate_ok(f, outcome):
                bad_certificates.append(text_of_form(f))
        else:
            n_unsat += 1
            if oracle.satisfiable(f):
                disagreements.append(text_of_form(f))
    assert not bad_certificates, bad_certificates[:5]
    assert not disagreements, disagreements[:5]
    assert n_sat > 4000 and n_unsat > 800
    _report(f"CRITERION 6 (tableau: {n_sat} sat certificates verified, "
            f"{n_unsat} unsat agree with oracle)")


# ---------------------------------------------------------------------------
# Criterion 7: validity spot checks and the listed definition validities

def test_criterion_07a_validity_spot_checks():
    assert valid(parse_form("(p & (q & r)) != ((p & q) & r)"))
    assert valid(parse_form("(p & (q & r)) <-> ((p & q) & r)"))
    assert not satisfiable(parse_form("p == (p & p)")).satisfiable
    _report("CRITERION 7a (validity spot checks)")


def _sample_operand(rng, vocab) -> BoolForm:
    # boolean metavariables are usually small; half the draws are bare atoms
    if rng.random() < 0.5:
        return rng.choice(vocab)
    return random_bool(rng, vocab, 5)


def _definition_validity_instances(pool, rng, bullet):
    """Yield (model, agent, antecedent, consequent) for each sampled instance
    of the bullet's law; the draws depend only on vocabulary and agents."""
    for model in pool:
        for _ in range(20):
            atom = rng.choice(model.vocabulary)
            body = _sample_operand(rng, model.vocabulary)
            other = _sample_operand(rng, model.vocabulary)
            agent = rng.choice(model.agents)
            if bullet == 1:
                yield model, agent, DefIsF(atom, body), EquivF(atom, body)
            elif bullet == 2:
                if body == other:
                    continue
                yield model, agent, DefIsF(atom, body), Neg(DefIsF(atom, other))
            elif bullet == 3:
                yield (model, agent, And(DefIsF(atom, body), KdF(agent, atom)),
                       BoxF(agent, DefIsF(atom, body)))
            else:
                yield (model, agent,
                       And(KdF(agent, body), BoxF(agent, EquivF(body, other))),
                       KdF(agent, other))


def _definition_validity_violations(pool, rng, bullet) -> list:
    """(model, world, agent, law) for every world where a sampled law fails."""
    violations = []
    for model, agent, antecedent, consequent in \
            _definition_validity_instances(pool, rng, bullet):
        f = mk_imp(antecedent, consequent)
        for world in model.worlds:
            if not evaluate(model, world, f):
                violations.append((model, world, agent, f))
    return violations


def _shown(violations) -> list:
    return [(world, text_of_form(f)) for _, world, _, f in violations[:3]]


def _with_loops(model, loops) -> Model:
    """The model with the extra (agent, world) self-loops; loops change no
    per-world constraint, so the result re-validates."""
    relations = {agent: model.relations.get(agent, frozenset()) for agent in model.agents}
    for agent, world in loops:
        relations[agent] = relations[agent] | {(world, world)}
    return validate(Premodel(model.vocabulary, model.agents, model.worlds,
                             model.valuation, model.definitions, relations,
                             model.actual))


def test_criterion_07b_definition_validities(suite_pool):
    rng = random.Random(5000)
    for bullet in (1, 2, 3):
        violations = _definition_validity_violations(suite_pool, rng, bullet)
        assert not violations, (bullet, _shown(violations))
    _report("CRITERION 7b (definition validities: implies-equivalence, "
            "uniqueness, boxed definition)")


def test_criterion_07c_knowledge_transfer_validity(suite_pool):
    # (kd i P & box i (P == Q)) -> kd i Q holds at every world that sees
    # itself, as in knowledge (T/S5) frames: kd compares the current world's
    # unraveling with its successors', and only the loop lets box i (P == Q)
    # constrain the current world's meaning of Q.  On belief frames a world
    # with successors but no loop can falsify it; the checker suite pins a
    # two-world countermodel
    # (TestKnowingTheDefinition::test_kd_transfer_needs_reflexivity).
    closures = [_with_loops(m, [(agent, w) for agent in m.agents for w in m.worlds])
                for m in suite_pool]
    violations = _definition_validity_violations(closures, random.Random(5001), 4)
    assert not violations, (f"{len(violations)} counterexamples on reflexive "
                            f"frames, first ones: {_shown(violations)}")
    # not vacuous: the antecedent holds where a successor besides the world
    # itself could disagree
    engaged = sum(
        1 for model, agent, antecedent, _ in
        _definition_validity_instances(closures, random.Random(5001), 4)
        for world in model.worlds
        if any(v != world for v in model.successors(agent, world))
        and evaluate(model, world, antecedent))
    assert engaged > 0, "the antecedent never held at a world with another successor"

    # On the unmodified frames every failure is at a world with successors
    # but no loop, and that single loop repairs it.
    violations = _definition_validity_violations(suite_pool, random.Random(5001), 4)
    for model, world, agent, f in violations:
        successors = model.successors(agent, world)
        assert successors and world not in successors, (world, text_of_form(f))
        assert evaluate(_with_loops(model, [(agent, world)]), world, f), \
            (world, text_of_form(f))
    _report(f"CRITERION 7c (knowledge transfer at worlds that see themselves, "
            f"as in T/S5 frames: {engaged} engaged antecedents; "
            f"{len(violations)} belief-frame failures, each repaired by its loop)")


# ---------------------------------------------------------------------------
# Criterion 8: non-compactness demonstration on finite prefixes

def test_criterion_08_noncompactness_prefixes():
    for n in range(2, 6):
        chain_atoms = [Atom(f"p{k}") for k in range(1, n + 3)]
        lits = [EquivF(chain_atoms[i - 1], And(chain_atoms[i], chain_atoms[i + 1]))
                for i in range(1, n + 1)]
        result = literal_sat(lits)
        assert result.satisfiable, n
        model = single_world_model(
            chain_atoms, ("i",), result.valuation, result.definitions)
        for lit in lits:
            assert unravel(model, "w0", lit.left) == unravel(model, "w0", lit.right)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "compact" in text, "README must document the non-compactness fact"
    _report("CRITERION 8 (non-compactness prefixes n=2..5 SAT, fact documented)")


# ---------------------------------------------------------------------------
# Criterion 9: round trips

def test_criterion_09_round_trips(figs):
    rng = random.Random(6000)
    for _ in range(1000):
        f = random_form(rng, ATOMS[:3], AGENTS, rng.randint(0, 6),
                        allow_ann=True, allow_kd=True)
        assert parse_form(text_of_form(f)) == f
    for name in fixture_names():
        text = fixture_path(name).read_text(encoding="utf-8")
        assert dumps(loads(text)) == text
    _report("CRITERION 9 (parse/print and load/save round trips)")


# ---------------------------------------------------------------------------
# Criterion 10: the quantified constraint agrees with the atom-level check

def _quantified_constraint_holds(model, max_len=9) -> bool:
    for w in model.worlds:
        groups: dict = {}
        for f in all_bools(model.vocabulary, max_len):
            key = unravel(model, w, f)
            value = eval_bool(model, w, f)
            if groups.setdefault(key, value) != value:
                return False
    return True


def _atom_criterion_holds(premodel) -> bool:
    try:
        validate(premodel)
        return True
    except Exception:
        return False


def test_criterion_10_constraint_reduction_guard(figs):
    disagreements = []
    for name, model in figs.items():
        if _quantified_constraint_holds(model) != _atom_criterion_holds(model):
            disagreements.append(name)
    rng = random.Random(7000)
    for index in range(100):
        model = random_valid_model(rng, n_atoms=3)
        if _quantified_constraint_holds(model) != _atom_criterion_holds(model):
            disagreements.append(("valid", index))
        # break the valuation of one defined atom and re-compare
        w = rng.choice(model.worlds)
        defined = [a for a in model.vocabulary if model.definitions[w][a] != a]
        if not defined:
            continue
        atom = rng.choice(defined)
        valuation = {u: dict(model.valuation[u]) for u in model.worlds}
        valuation[w][atom] = not valuation[w][atom]
        broken = Premodel(model.vocabulary, model.agents, model.worlds,
                          valuation, model.definitions, model.relations,
                          model.actual)
        if _quantified_constraint_holds(broken) != _atom_criterion_holds(broken):
            disagreements.append(("broken", index))
    assert not disagreements, disagreements
    _report("CRITERION 10 (constraint reduction guard)")

"""Axiom recognition, proof verification, reduction, and the tableau."""

import hashlib
import random

import pytest

from paldef.checker import evaluate
from paldef.definitions import DInput, EquivLiteral, literal_sat
from paldef.models import Model, dumps, validate
from paldef.proof import (
    ProofLine, ReductionError, TautologyBudgetError, is_axiom_instance,
    is_tautology, proof_from_json, proof_to_json, reduce_announcements,
    satisfiable, valid, verify_proof, witness_to_proof,
)
from paldef.syntax import (
    And, AnnF, Atom, BoxF, DefIsF, EquivF, KdF, Neg, OccSubst, apply_occ_subst,
    mk_imp, mk_or, occurrences, parse_form, text_of_form,
)

from helpers import (
    Depth1Oracle, enumerate_depth1_forms, model_pool, random_bool, random_form,
    skeleton_leaf_count, truth_table_tautology,
)

p, q, r, s = (Atom(n) for n in "pqrs")


class TestTautology:
    def test_simple(self):
        assert is_tautology(parse_form("p -> p"))
        assert is_tautology(parse_form("box i p | ~box i p"))
        assert not is_tautology(parse_form("p | q"))

    def test_abstraction_shares_identical_subtrees(self):
        assert is_tautology(parse_form("(p == q) -> (p == q)"))
        assert not is_tautology(parse_form("(p == q) -> (q == p)"))

    def test_budget_guard(self):
        f = Atom("x0")
        for k in range(1, 21):
            f = And(f, Atom(f"x{k}"))
        g = mk_imp(f, f)
        with pytest.raises(TautologyBudgetError):
            is_tautology(g)

    def test_random_excluded_middle(self):
        rng = random.Random(40)
        for _ in range(200):
            f = random_form(rng, (p, q, r), ("i", "j"), 3,
                            allow_ann=True, allow_kd=True)
            assert is_tautology(parse_form(f"({text_of_form(f)} | ~{text_of_form(f)})"))

    def test_agrees_with_truth_table(self):
        rng = random.Random(4004)
        pool = [p, q, r, s, BoxF("i", p), BoxF("j", Neg(q)), EquivF(p, q),
                EquivF(q, p), EquivF(Neg(p), And(q, r)), AnnF(p, q), KdF("i", p),
                DefIsF(q, Neg(r)), BoxF("i", And(p, q)), AnnF(r, BoxF("j", s))]

        def tree(depth, leaves):
            if depth == 0 or rng.random() < 0.2:
                return rng.choice(leaves)
            if rng.random() < 0.35:
                return Neg(tree(depth - 1, leaves))
            return And(tree(depth - 1, leaves), tree(depth - 1, leaves))

        verdicts = []
        for _ in range(400):
            leaves = rng.sample(pool, rng.randint(1, 12))
            f = tree(rng.randint(1, 7), leaves)
            if rng.random() < 0.3:
                g = tree(3, leaves)
                f = mk_imp(And(f, g), mk_or(tree(3, leaves), f))
            assert skeleton_leaf_count(f) <= 12
            verdict = is_tautology(f)
            assert verdict == truth_table_tautology(f), text_of_form(f)
            verdicts.append(verdict)
        assert 40 <= verdicts.count(True) <= 360


class TestAxiomInstances:
    @pytest.mark.parametrize("text,name", [
        ("(~p == ~q) <-> (p == q)", "pattern-neg"),
        ("((p == (q & r)) & (s == s)) -> (s == s)", "taut"),
        ("p != (p & p)", "non-circularity"),
        ("[r](p == q) <-> (r -> (p == q))", "reduction-equiv"),
        ("box i (p -> q) -> (box i p -> box i q)", "K"),
        ("[q]p <-> (q -> p)", "reduction-atom"),
        ("[q]~p <-> (q -> ~[q]p)", "reduction-neg"),
        ("[q](p & r) <-> ([q]p & [q]r)", "reduction-and"),
        ("[q]box i p <-> (q -> box i (q -> [q]p))", "reduction-box"),
        ("[q][r]p <-> [q & [q]r]p", "reduction-comp"),
        ("(p & q) == (p & q)", "reflexivity"),
        ("(p == ~q) -> (~q == p)", "symmetry"),
        ("((p == q) & (q == ~r)) -> (p == ~r)", "transitivity"),
        ("(p == (q & r)) -> (p <-> (q & r))", "equivalence"),
        ("((p == (q & r)) & ((p & p) == (p & p))) -> ((p & p) == ((q & r) & p))",
         "occurrence-substitution"),
        ("((p & q) == (r & s)) <-> ((p == r) & (q == s))", "pattern-and"),
        ("~(~p == (q & r))", "pattern-mismatch"),
    ])
    def test_recognized(self, text, name):
        assert is_axiom_instance(parse_form(text)) == name

    @pytest.mark.parametrize("text", [
        "box i p", "p -> q", "(p == q) -> (p == r)",
        "((p == q) & (r == s)) -> (r == (q & s))",
        "~(p == (q & r))",                       # left side not an atom in rhs
        "(p & q) != (q & p)",                    # mismatch axiom needs ~ vs &
        # one near-miss per schema, in table order
        "box i (p -> q) -> (box i p -> box j q)",           # K: agent
        "[q](p & r) <-> (q -> (p & r))",                    # atom-only p
        "[r](p == q) <-> (s -> (p == q))",                  # repeated x
        "[q]~p <-> (q -> ~[r]p)",
        "[q](p & r) <-> ([q]p & [s]r)",
        "[q]box i p <-> (q -> box j (q -> [q]p))",          # reduction-box: agent
        "[q][r]p <-> [q & [s]r]p",
        "(p & q) == (q & p)",
        "(p == ~q) -> (~q == r)",
        "((p == q) & (r == s)) -> (p == s)",
        "(p == q) -> (p <-> r)",                            # cross-layer y
        "((p == q) & (r == p)) -> (s == q)",                # repeated y
        "(~p == ~q) <-> (p == r)",
        "((p & q) == (r & s)) <-> ((p == r) & (q == p))",
        "~((p & q) == ~r)",                                 # ~ on the right
        "~(p == p)",                                        # not circular
    ])
    def test_rejected(self, text):
        assert is_axiom_instance(parse_form(text)) is None

    def test_occurrence_substitution_instances_random(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(300):
            target = random_bool(rng, (p, q, r), 9)
            atom = rng.choice(sorted({a for a in (p, q, r)}))
            if occurrences(atom, target) == 0:
                continue
            k = rng.randint(1, occurrences(atom, target))
            image = random_bool(rng, (p, q, r), 5)
            rewritten = apply_occ_subst(OccSubst(k, atom, image), target)
            lhs = random_bool(rng, (p, q, r), 5)
            f = mk_imp(And(EquivF(atom, image), EquivF(lhs, target)),
                       EquivF(lhs, rewritten))
            assert is_axiom_instance(f) == "occurrence-substitution"
            hits += 1
        assert hits > 150


class TestVerifyProof:
    def test_taut_then_necessitation(self):
        proof = [ProofLine(parse_form("p -> p"), "taut"),
                 ProofLine(parse_form("box i (p -> p)"), "nec", (1,), "i")]
        assert verify_proof(proof).ok

    def test_hypotheses_are_not_a_rule(self):
        proof = [ProofLine(parse_form("(p == q) -> (p <-> q)"), "axiom"),
                 ProofLine(parse_form("p == q"), "hypothesis")]
        outcome = verify_proof(proof)
        assert not outcome.ok and outcome.line == 2 and "unknown rule" in outcome.reason

    def test_rewrite_is_not_a_rule(self):
        proof = [ProofLine(parse_form("p == p"), "axiom"),
                 ProofLine(parse_form("p == (p & p)"), "rewrite", (1,))]
        outcome = verify_proof(proof)
        assert not outcome.ok and outcome.line == 2

    def test_modus_ponens_checks_the_implication_shape(self):
        good = [ProofLine(parse_form("p == p"), "axiom"),
                ProofLine(parse_form("(p == p) -> (q -> (p == p))"), "taut"),
                ProofLine(parse_form("q -> (p == p)"), "mp", (1, 2))]
        assert verify_proof(good).ok
        bad = good[:2] + [ProofLine(parse_form("r -> (p == p)"), "mp", (1, 2))]
        outcome = verify_proof(bad)
        assert not outcome.ok and outcome.line == 3

    def test_necessitation_cannot_target_announcements(self):
        proof = [ProofLine(parse_form("p -> p"), "taut"),
                 ProofLine(parse_form("[q](p -> p)"), "nec", (1,), "i")]
        outcome = verify_proof(proof)
        assert not outcome.ok and outcome.line == 2

    def test_forward_reference_rejected(self):
        proof = [ProofLine(parse_form("box i p"), "nec", (2,), "i"),
                 ProofLine(parse_form("p"), "taut")]
        outcome = verify_proof(proof)
        assert not outcome.ok and outcome.line == 1

    def test_json_round_trip(self):
        proof = [ProofLine(parse_form("p -> p"), "taut"),
                 ProofLine(parse_form("box i (p -> p)"), "nec", (1,), "i")]
        assert proof_from_json(proof_to_json(proof)) == proof


class TestReduce:
    def test_atomic(self):
        assert reduce_announcements(parse_form("[r]p")) == parse_form("(r -> p)")

    def test_equivalence_scope(self):
        assert reduce_announcements(parse_form("[r](p == q)")) == \
            parse_form("(r -> (p == q))")

    def test_nested_composition(self):
        assert reduce_announcements(parse_form("[p][q]s")) == \
            parse_form("((p & (p -> q)) -> s)")

    @pytest.mark.parametrize("text,reduced", [
        ("[p] ~[q] r", "(p -> ~((p & (p -> q)) -> r))"),
        ("[p] box i [q] r", "(p -> box i (p -> ((p & (p -> q)) -> r)))"),
        ("[p][q][r] s", "(((p & (p -> q)) & ((p & (p -> q)) -> r)) -> s)"),
    ])
    def test_composition_flattens_inside_negation_and_box(self, text, reduced):
        assert text_of_form(reduce_announcements(parse_form(text))) == reduced

    def test_kd_under_announcement_rejected(self):
        with pytest.raises(ReductionError):
            reduce_announcements(parse_form("[p] kd i q"))
        with pytest.raises(ReductionError):
            reduce_announcements(parse_form("[p](q := r)"))

    def test_kd_outside_announcements_untouched(self):
        f = parse_form("kd i p & [q]r")
        assert reduce_announcements(f) == And(
            parse_form("kd i p"), parse_form("(q -> r)"))

    def test_reduction_preserves_meaning(self):
        rng = random.Random(42)
        pool = model_pool(random.Random(43), 12, n_atoms=3)
        for _ in range(220):
            f = random_form(rng, (p, q, r), ("i", "j"), rng.randint(1, 4),
                            allow_ann=True)
            g = reduce_announcements(f)
            m = pool[rng.randrange(len(pool))]
            for w in m.worlds:
                assert evaluate(m, w, f) == evaluate(m, w, g), text_of_form(f)


class TestTableau:
    def test_pattern_and_instance_is_valid(self):
        f = parse_form("~((((p & q) == (r & s))) <-> ((p == r) & (q == s)))")
        assert not satisfiable(f).satisfiable

    def test_self_growth_contradiction(self):
        assert not satisfiable(parse_form("p == (p & p)")).satisfiable

    def test_sat_certificate_is_checked_model(self):
        out = satisfiable(parse_form("box i (p == q) & ~box i p"))
        assert out.satisfiable
        assert isinstance(validate(out.model), Model)
        assert evaluate(out.model, out.world, parse_form("box i (p == q) & ~box i p"))

    def test_finite_prefix_of_noncompact_chain(self):
        f = parse_form("(p1 == (p2 & p3)) & (p2 == (p3 & p4))")
        out = satisfiable(f)
        assert out.satisfiable
        assert evaluate(out.model, out.world, f)

    def test_deep_modal_formula(self):
        f = parse_form("box i box j (p == q) & ~box i box j q & ~box i p")
        out = satisfiable(f)
        assert out.satisfiable
        assert evaluate(out.model, out.world, f)

    @pytest.mark.parametrize("text, message", [
        pytest.param("[p]q", "satisfiable() handles the announcement-free fragment; "
                     "reduce or avoid [p] q", id="announcement"),
        pytest.param("kd i p", "satisfiable() does not decide kd; avoid kd i p", id="kd"),
        pytest.param("p & [q] kd i r", "satisfiable() handles the announcement-free "
                     "fragment; reduce or avoid [q] kd i r", id="announcement-before-kd"),
        pytest.param("kd i p & (q := r)", "satisfiable() does not decide kd; avoid kd i p",
                     id="kd-before-defis"),
        pytest.param("~box i (p := q) | [p] q", "satisfiable() does not decide :=; "
                     "avoid (p := q)", id="defis-before-announcement"),
        pytest.param("box j ([p] q) & kd i r", "satisfiable() handles the announcement-free "
                     "fragment; reduce or avoid [p] q", id="boxed-announcement-before-kd"),
    ])
    def test_refusal_names_the_first_operator_in_reading_order(self, text, message):
        with pytest.raises(ValueError) as info:
            satisfiable(parse_form(text))
        assert str(info.value) == message

    # sha256 over, for each input, the certificate's model file, "unsat", or
    # the refusal message
    CERTIFICATE_DIGEST = "b6025a24956a4517ed8258820e7a90e326b704819613bb277b83d2f59718e096"

    def test_certificate_corpus_is_unchanged(self):
        rng = random.Random(47)
        forms = [random_form(rng, (p, q, r), ("i", "j"), rng.randint(0, 3),
                             allow_ann=dynamic, allow_kd=dynamic)
                 for dynamic in (True, False) for _ in range(2000)]
        forms += [parse_form(" & ".join(f"(box i p{k} | ~box i (p{k} == q{k}))"
                                        for k in range(n)) + " & ~box i p0")
                  for n in range(2, 7)]
        h = hashlib.sha256()
        counts = [0, 0, 0]  # sat, unsat, refused
        for f in forms:
            try:
                out = satisfiable(f)
            except ValueError as e:
                h.update(f"{e}\n".encode())
                counts[2] += 1
                continue
            h.update(f"{dumps(out.model) if out.satisfiable else 'unsat'}\n".encode())
            counts[not out.satisfiable] += 1
        assert counts == [2707, 491, 807]
        assert h.hexdigest() == self.CERTIFICATE_DIGEST, (
            "a certificate, verdict or refusal changed; a deliberate change to "
            "the tableau updates CERTIFICATE_DIGEST and says so in CHANGES.md")

    def test_agreement_with_bounded_oracle_sample(self):
        oracle = Depth1Oracle()
        forms = enumerate_depth1_forms((p, q), "i", 9)
        for f in forms:
            out = satisfiable(f)
            if out.satisfiable:
                assert evaluate(out.model, out.world, f)
            else:
                assert not oracle.satisfiable(f), text_of_form(f)

    def test_unsat_verdicts_hold_on_random_models(self):
        # beyond the depth-1 oracle class: an unsat formula must be false at
        # every world of every random valid model
        rng = random.Random(45)
        pool = model_pool(random.Random(46), 12, n_atoms=3)
        n_unsat = 0
        for _ in range(300):
            f = random_form(rng, (p, q, r), ("i", "j"), rng.randint(1, 3))
            out = satisfiable(f)
            if out.satisfiable:
                assert evaluate(out.model, out.world, f)
                continue
            n_unsat += 1
            for model in pool:
                for world in model.worlds:
                    assert not evaluate(model, world, f), text_of_form(f)
        assert n_unsat > 15


class TestValid:
    def test_association_disequivalence(self):
        assert valid(parse_form("(p & (q & r)) != ((p & q) & r)"))

    def test_association_biconditional(self):
        assert valid(parse_form("(p & (q & r)) <-> ((p & q) & r)"))

    def test_atom_not_valid(self):
        assert not valid(parse_form("p"))

    def test_reduction_axioms_are_valid(self):
        for text in [
            "[r]p <-> (r -> p)",
            "[r](p == q) <-> (r -> (p == q))",
            "[p][q]s <-> [p & [p]q]s",
        ]:
            assert valid(parse_form(text)), text


class TestWitnessProofs:
    def test_grow_non_circular_compiles_and_verifies(self):
        lits = [EquivLiteral(True, p, And(q, r)),
                EquivLiteral(True, q, And(p, r)),
                EquivLiteral(True, s, p)]
        res = literal_sat(lits)
        assert res.reason == "circular"
        proof = witness_to_proof(res.witness, lits)
        assert verify_proof(proof).ok
        assert proof[-1].formula == Neg(
            And(EquivF(p, And(q, r)),
                 And(EquivF(q, And(p, r)), EquivF(s, p))))

    def test_corrupted_witness_proofs_are_rejected(self):
        lits = [EquivLiteral(True, p, And(q, r)),
                EquivLiteral(True, q, And(p, r))]
        proof = witness_to_proof(literal_sat(lits).witness, lits)
        assert verify_proof(proof).ok
        for i, line in enumerate(proof):
            if line.rule == "mp":
                swapped = list(proof)
                swapped[i] = ProofLine(line.formula, "mp",
                                       (line.refs[1], line.refs[0]), line.agent)
                assert not verify_proof(swapped).ok
            if line.rule == "axiom":
                corrupt = list(proof)
                corrupt[i] = ProofLine(Neg(line.formula), line.rule,
                                       line.refs, line.agent)
                assert not verify_proof(corrupt).ok

    def test_random_circular_sets_compile_and_verify(self):
        rng = random.Random(44)
        compiled = 0
        for _ in range(200):
            lits = []
            for _ in range(rng.randint(1, 4)):
                lits.append(EquivLiteral(
                    True, rng.choice((p, q, r, s)), random_bool(rng, (p, q, r, s), 9)))
            res = literal_sat(lits)
            if res.reason != "circular":
                continue
            proof = witness_to_proof(res.witness, lits)
            outcome = verify_proof(proof)
            assert outcome.ok, (lits, str(outcome))
            compiled += 1
        assert compiled > 40

    def test_proofs_from_the_premises_the_witness_uses(self):
        rng = random.Random(45)
        atoms = (p, q, r, s, Atom("t"))
        compiled = narrowed = 0
        for _ in range(300):
            lits = []
            for _ in range(rng.randint(2, 6)):
                rhs = rng.choice(atoms) if rng.random() < 0.3 else random_bool(rng, atoms, 7)
                lits.append(EquivLiteral(True, rng.choice(atoms), rhs))
            res = literal_sat(lits)
            if res.reason != "circular":
                continue
            used = res.witness.inputs()
            assert used <= {DInput(l.left, l.right) for l in lits}
            premises = [l for l in lits if DInput(l.left, l.right) in used]
            outcome = verify_proof(witness_to_proof(res.witness, premises))
            assert outcome.ok, (lits, str(outcome))
            compiled += 1
            narrowed += len(premises) < len(lits)
        assert compiled > 60 and narrowed > 20

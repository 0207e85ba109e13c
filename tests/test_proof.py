"""Axiom recognition, proof verification, reduction, and the tableau."""

import hashlib
import json
import random

import pytest

import paldef.proof
from paldef import syntax
from paldef.checker import evaluate
from paldef.definitions import (
    CircularWitness, Derivation, literal_sat, parse_literal_lines,
)
from paldef.models import Model, dumps, validate
from paldef.proof import (
    ProofLine, ReductionError, TautologyBudgetError, is_axiom_instance,
    is_tautology, proof_from_json, proof_to_json, reduce_announcements,
    satisfiable, valid, verify_proof, witness_to_proof,
)
from paldef.syntax import (
    And, AnnF, Atom, BoxF, DefIsF, EquivF, KdF, Neg, OccSubst, ParseError,
    apply_occ_subst, as_iff, as_imp, mk_imp, mk_or, occurrences, parse_form, text_of_form,
    vocabulary,
)

from helpers import (
    Budget, Depth1Oracle, enumerate_depth1_forms, model_pool, random_bool, random_form,
    skeleton_leaf_count, truth_table_tautology, witness_digest_corpus, witness_proof_files,
    written_out,
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

    def test_necessitation_needs_an_agent(self):
        proof = [ProofLine(parse_form("p -> p"), "taut"),
                 ProofLine(parse_form("box i (p -> p)"), "nec", (1,))]
        assert verify_proof(proof) == paldef.proof.ProofOutcome(False, 2, "nec needs an agent")

    def test_necessitation_by_an_invalid_agent_fails_its_line(self):
        proof = [ProofLine(parse_form("p -> p"), "taut"),
                 ProofLine(parse_form("box i (p -> p)"), "nec", (1,), "Bob")]
        outcome = verify_proof(proof)
        assert not outcome.ok and outcome.line == 2
        assert outcome.reason.startswith("invalid agent name 'Bob'")

    def test_json_round_trip(self):
        proof = [ProofLine(parse_form("p -> p"), "taut"),
                 ProofLine(parse_form("box i (p -> p)"), "nec", (1,), "i")]
        assert proof_from_json(proof_to_json(proof)) == proof


def _file_data(proof) -> list[dict]:
    """The lines of a proof file's JSON value, built as the entries they
    hold, with each formula written out in full."""
    data = []
    for line in proof:
        entry = {"formula": text_of_form(line.formula), "rule": line.rule}
        if line.refs:
            entry["refs"] = list(line.refs)
        if line.agent is not None:
            entry["agent"] = line.agent
        data.append(entry)
    return data


def _lines_parsed_alone(text: str) -> list[ProofLine]:
    """The lines of a well-shaped proof file, each formula written out and
    parsed on its own."""
    data = json.loads(text)
    lines = []
    for no, entry in enumerate(data["lines"], start=1):
        try:
            formula = parse_form(written_out(entry["formula"], data["terms"]))
        except ParseError as e:
            raise ValueError(f'proof line {no}: "formula": {e}') from None
        lines.append(ProofLine(formula, entry["rule"], tuple(entry.get("refs", ())),
                               entry.get("agent")))
    return lines


def _outcome(read, text: str) -> str:
    """The verdict on the lines read from text, or the error without its
    position, which a written-out formula moves."""
    try:
        return str(verify_proof(read(text)))
    except ValueError as e:
        return "error: " + str(e).split(" (at position")[0]


def _corrupt(rng, data: dict) -> dict:
    """data with one line's formula, refs or rule damaged."""
    data = {"terms": data["terms"], "lines": [dict(entry) for entry in data["lines"]]}
    entry = rng.choice(data["lines"])
    kind = rng.randrange(4)
    if kind == 0:
        tokens = syntax._TOKEN_RE.findall(entry["formula"])
        del tokens[rng.randrange(len(tokens))]
        entry["formula"] = " ".join("".join(token) for token in tokens)
    elif kind == 1:
        entry["formula"] = rng.choice(data["lines"])["formula"]
    elif kind == 2:
        entry["refs"] = [rng.randint(0, len(data["lines"])) for _ in range(rng.randint(1, 2))]
    else:
        entry["rule"] = rng.choice(["axiom", "taut", "mp", "nec"])
    return data


class TestProofFiles:
    def test_files_are_laid_out_as_the_json_module_lays_them_out(self):
        proofs = [
            [],
            [ProofLine(parse_form("p -> p"), "taut")],
            [ProofLine(parse_form("p -> p"), "taut"),
             ProofLine(parse_form("box i (p -> p)"), "nec", (1,), "i"),
             ProofLine(parse_form("kd j (p & ~q)"), "mp", (1, 2, 3, 10, 200)),
             ProofLine(parse_form("p == q"), 'a "rule" \\ \u00e9\n', (), "agent \u2203")],
        ]
        rng = random.Random(51)
        files = witness_proof_files()
        for text in rng.sample(files, 20) + list(files[-3:]):
            proofs.append(proof_from_json(text))
        for proof in proofs:
            text = proof_to_json(proof)
            data = json.loads(text)
            assert text == json.dumps(data, indent=2) + "\n"
            assert list(data) == ["terms", "lines"]
            lines = data["lines"]
            for entry in lines:
                entry["formula"] = written_out(entry["formula"], data["terms"])
            assert lines == _file_data(proof)

    def test_batch_parsed_files_get_the_verdicts_of_lines_parsed_alone(self):
        rng = random.Random(53)
        files = witness_proof_files()
        # a sample, and the longest chains, which the tautology budget rejects
        rejected = 0
        for text in rng.sample(files, 150) + list(files[-8:]):
            data = json.loads(text)
            for copy in (data, _corrupt(rng, data), _corrupt(rng, data)):
                text = json.dumps(copy, indent=2)
                outcome = _outcome(proof_from_json, text)
                assert outcome == _outcome(_lines_parsed_alone, text)
                rejected += outcome != "ok"
        assert rejected > 200


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
        lits = [EquivF(p, And(q, r)),
                EquivF(q, And(p, r)),
                EquivF(s, p)]
        res = literal_sat(lits)
        assert res.reason == "circular"
        proof = witness_to_proof(res.witness, lits)
        assert verify_proof(proof).ok
        # the proof refutes the premises it uses; s == p is not one of them
        assert proof[-1].formula == Neg(And(EquivF(p, And(q, r)), EquivF(q, And(p, r))))

    def test_corrupted_witness_proofs_are_rejected(self):
        lits = [EquivF(p, And(q, r)),
                EquivF(q, And(p, r))]
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
                lits.append(EquivF(rng.choice((p, q, r, s)), random_bool(rng, (p, q, r, s), 9)))
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
                lits.append(EquivF(rng.choice(atoms), rhs))
            res = literal_sat(lits)
            if res.reason != "circular":
                continue
            proof = witness_to_proof(res.witness, lits)
            outcome = verify_proof(proof)
            assert outcome.ok, (lits, str(outcome))
            # C is the premises that some lemma rests on, in input order
            premises = lits
            refuted = _conjuncts(proof[-1].formula.inner)
            assert refuted == [f for f in premises if f in refuted]
            rested_on = {f for line in proof
                         if (lemma := _lemma(line, premises)) is not None
                         for f in _conjuncts(lemma[0])}
            assert rested_on == set(refuted)
            compiled += 1
            narrowed += len(refuted) < len(lits)
        assert compiled > 60 and narrowed > 20

    def test_each_lemma_carries_the_premises_of_its_derivation(self):
        rng = random.Random(46)
        atoms = (p, q, r, s, Atom("t"))
        checked = narrowed = 0
        for _ in range(300):
            lits = [EquivF(rng.choice(atoms),
                           rng.choice(atoms) if rng.random() < 0.3
                           else random_bool(rng, atoms, 7))
                    for _ in range(rng.randint(2, 6))]
            res = literal_sat(lits)
            if res.reason != "circular":
                continue
            premises = lits
            allowed = _premise_sets(res.witness, premises)
            proof = witness_to_proof(res.witness, lits)
            assert verify_proof(proof).ok
            # the file prints the lines as one batch, with the same texts
            # once its terms are written out
            data = json.loads(proof_to_json(proof))
            assert [written_out(entry["formula"], data["terms"])
                    for entry in data["lines"]] == [text_of_form(line.formula) for line in proof]
            carried = {}
            for line in proof:
                lemma = _lemma(line, premises)
                if lemma is not None:
                    hypothesis, lit = lemma
                    assert hypothesis in allowed[lit], (lits, text_of_form(line.formula))
                    carried[lit] = hypothesis
                    narrowed += hypothesis != _conjunction(premises)
            assert carried.keys() == allowed.keys()
            checked += 1
        assert checked > 150 and narrowed > 300

    def test_literals_without_a_premise_the_witness_uses_are_refused(self):
        equivs = parse_literal_lines("p == (q & r)\nq == (p & r)")
        witness = literal_sat(equivs).witness
        negated = Neg(equivs[1])
        for given in (equivs[:1], equivs[1:], [negated, equivs[0]]):
            with pytest.raises(ValueError, match="witness uses unknown premise"):
                witness_to_proof(witness, given)

    def test_unused_premises_stay_out_of_the_lemmas(self):
        used = ["x0 == (x1 & r)", "x1 == (x0 & r)"]
        other = [f"y{k} == ~z{k}" for k in range(28)]
        equivs = parse_literal_lines("\n".join(other[:14] + used + other[14:]))
        proof = witness_to_proof(literal_sat(equivs).witness, equivs)
        unused = {Atom(f"{c}{k}") for c in "yz" for k in range(28)}
        for line in proof:
            assert not vocabulary(line.formula) & unused, text_of_form(line.formula)
        assert proof[-1].formula == Neg(_conjunction([parse_form(f) for f in used]))
        assert verify_proof(proof).ok

    def test_every_step_names_a_law_with_a_premise_side(self):
        rules = set()
        for lines in witness_digest_corpus():
            witness = literal_sat(parse_literal_lines("\n".join(lines))).witness
            if witness is None:
                continue
            todo = [witness.derivation]
            seen = set()
            while todo:
                d = todo.pop()
                if id(d) not in seen:
                    seen.add(id(d))
                    rules.add(d.rule)
                    todo += d.parts
        assert rules == {"input", "symmetry", "pattern-neg", "pattern-and", "transitivity",
                         "occurrence-substitution"}
        for rule in rules - {"input"}:
            schema = paldef.proof._SCHEMAS[rule]
            assert (as_iff(schema) or as_imp(schema)) is not None, rule

    def test_a_hand_built_derivation_compiles_and_verifies(self):
        lits = [EquivF(p, q), EquivF(q, And(p, r))]
        base = Derivation("transitivity", p, And(p, r), (
            Derivation("input", p, q), Derivation("input", q, And(p, r))))
        witness = CircularWitness(base)
        assert verify_proof(witness_to_proof(witness, lits)).ok

    @pytest.mark.parametrize("rule,parts", [
        ("transitivity", [(p, q), (s, And(p, r))]),  # the endpoints do not meet
        ("transitivity", [(p, And(p, r))]),          # one premise short
        ("transitivity", [(p, q), (q, And(p, r)), (q, q)]),  # one too many
        ("symmetry", [(p, q)]),                      # derives q == p instead
        ("pattern-and", [(p, And(p, r))]),           # no conjunction on the left
        ("pattern-neg", [(Neg(p), Neg(q))]),         # derives p == q instead
        ("symmetry", []),                            # no premise at all
        ("reflexivity", [(p, And(p, r))]),           # the law has no premise side
        ("K", [(p, And(p, r))]),                     # the law is modal
        ("occurrence-substitution", [(q, And(p, r)), (p, s)]),  # s has no q to replace
        ("modus-ponens", [(p, And(p, r))]),          # no such law
    ])
    def test_steps_whose_parts_do_not_fit_their_law_are_refused(self, rule, parts):
        lits = [EquivF(left, right) for left, right in parts]
        base = Derivation(rule, p, And(p, r), tuple(
            Derivation("input", left, right) for left, right in parts))
        witness = CircularWitness(base)
        with pytest.raises(ValueError, match="does not derive"):
            witness_to_proof(witness, lits)

    @pytest.mark.parametrize("n,line", [(18, None), (19, 105)])
    def test_the_tautology_budget_stops_circular_chains_after_18(self, n, line):
        equivs = parse_literal_lines(
            "".join(f"x{k} == (x{(k + 1) % n} & r)\n" for k in range(n)))
        outcome = verify_proof(witness_to_proof(literal_sat(equivs).witness, equivs))
        assert outcome.ok is (line is None)
        if line is not None:
            assert outcome.line == line and "exceed the tautology budget" in outcome.reason


def _conjunction(forms):
    result = forms[-1]
    for f in reversed(forms[:-1]):
        result = And(f, result)
    return result


def _premise_sets(witness, premises):
    """Each literal the witness derives -> the conjunctions, in input order,
    of the premises that one of its derivations rests on."""
    found: dict = {}

    def rests_on(d) -> frozenset:
        if d.rule == "input":
            used = frozenset((premises.index(EquivF(d.left, d.right)),))
        else:
            used = frozenset().union(*map(rests_on, d.parts))
        found.setdefault(EquivF(d.left, d.right), set()).add(used)
        return used

    rests_on(witness.derivation)
    return {lit: {_conjunction([premises[k] for k in sorted(used)]) for used in sets}
            for lit, sets in found.items()}


def _conjuncts(f):
    """The conjuncts of a right-nested conjunction, left to right."""
    found = []
    while type(f) is And:
        found.append(f.left)
        f = f.right
    return found + [f]


def _lemma(line, premises):
    """(C_S, lit) when a line, not an axiom, reads `C_S -> lit` for a
    conjunction C_S of premises and an equivalence lit; else None."""
    parts = as_imp(line.formula)
    if line.rule == "axiom" or parts is None or type(parts[1]) is not EquivF:
        return None
    return parts if all(c in premises for c in _conjuncts(parts[0])) else None


class TestGrowth:
    """Parser work at doubling sizes.  Each line of a circular chain's proof
    repeats earlier lines' premise conjunctions and lemmas, so its lines,
    written out, hold about n^2 tokens: 12,230, 43,118 and 160,190 at n = 12,
    24 and 48.  The file names each of them once, as a term, and holds
    11.0%, 9.0% and 7.7% of those tokens, each of which the reader reads
    once."""

    @pytest.mark.parametrize("n", [12, 24, 48])
    def test_a_proof_file_reads_each_repeated_span_once(self, monkeypatch, n):
        equivs = parse_literal_lines("\n".join(f"x{k} == (x{(k + 1) % n} & r)"
                                                  for k in range(n)))
        text = proof_to_json(witness_to_proof(literal_sat(equivs).witness, equivs))
        data = json.loads(text)
        tokens = syntax._TOKEN_RE
        texts = data["terms"] + [entry["formula"] for entry in data["lines"]]
        in_file = sum(len(tokens.findall(t)) for t in texts)
        written = sum(len(tokens.findall(written_out(entry["formula"], data["terms"])))
                      for entry in data["lines"])
        read = []

        class CountingTokens:
            def finditer(self, string, pos=0):
                for m in tokens.finditer(string, pos):
                    read.append(m.end())
                    yield m

        monkeypatch.setattr(syntax, "_TOKEN_RE", CountingTokens())
        assert len(proof_from_json(text)) == 6 * n - 1
        assert len(read) == in_file <= written // 7


class TestTableauGrowth:
    """Theory checks (`literal_sat` calls) of the tableau at growing sizes,
    held to the bound a planned fix meets."""

    @pytest.mark.xfail(strict=True, reason="_explore branches chronologically, so it tries "
                       "every combination of the unrelated disjunctions before the one "
                       "that clashes")
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_clause_family_needs_linearly_many_theory_checks(self, monkeypatch, n):
        # satisfiable; the only clash is box i (p0 == q0) against its negation
        # in one child.  The benchmark's family boxes atoms, which makes each
        # check enumerate 2^n valuations (pinned in test_definitions.py); boxed
        # equivalences branch the same way, with the same counts: 31, 147, 707
        # and 3,331 at n = 4, 6, 8 and 10
        budget = Budget(4 * n, "theory checks")
        monkeypatch.setattr(paldef.proof, "literal_sat", budget.counting(literal_sat))
        clauses = [f"(box i (p{k} == q{k}) | ~box i (p{k} == r{k}))" for k in range(n)]
        assert satisfiable(parse_form(" & ".join(clauses) + " & ~box i (p0 == q0)")).satisfiable

    @pytest.mark.xfail(strict=True, reason="_explore expands the reduction as a tree of "
                       "4^n nodes, not as its shared subformulas")
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_announcements_need_a_theory_check_per_shared_subformula(self, monkeypatch, n):
        # the reduction has 12n + 16 distinct subformulas
        budget = Budget(12 * n + 16, "theory checks")
        monkeypatch.setattr(paldef.proof, "literal_sat", budget.counting(literal_sat))
        assert valid(parse_form("[box i p]" * n + " box i (p | ~p)"))

"""Unification core: merge, assert/resolve, pick, literal sets, witnesses."""

import dataclasses
import hashlib
import itertools
import random

import pytest

import paldef.definitions
from paldef.definitions import (
    CircularityDetected, CircularWitness, DefState, Derivation, EquivLiteral, PatternClash,
    literal_sat, merge, merge_substitution, parse_literal_lines, pick,
)
from paldef.models import truth
from paldef.proof import proof_from_json, proof_to_json, verify_proof, witness_to_proof
from paldef.syntax import (
    And, Atom, Neg, OccSubst, apply_occ_subst, apply_simultaneous, is_circular, length,
    parse_bool, postorder, text_of_batch, text_of_form, vocabulary,
)

from helpers import (
    BoundedClosure, Budget, _eval_bool_map, all_bools, random_bool, seed_digest_corpus,
    single_world_oracle, truth_table_models, witness_digest_corpus,
)

p, q, r, s, t = (Atom(n) for n in "pqrst")


class TestMerge:
    def test_componentwise_combination(self):
        assert merge(parse_bool("(p & (q & r))"), parse_bool("(~s & t)")) == \
            parse_bool("(~s & (q & r))")

    def test_atoms(self):
        assert merge(p, p) == p
        assert merge(p, q) == p
        assert merge(q, p) == p

    def test_undefined_on_mismatch(self):
        assert merge(Neg(p), And(q, r)) is None
        assert merge(And(q, r), Neg(p)) is None
        assert merge(And(p, Neg(q)), And(Neg(p), And(q, r))) is None

    def test_symmetry_exhaustive(self):
        forms = all_bools((p, q), 7)
        for a, b in itertools.product(forms, forms):
            assert merge(a, b) == merge(b, a)

    def test_symmetry_random(self):
        rng = random.Random(10)
        for _ in range(2000):
            a = random_bool(rng, (p, q, r), 9)
            b = random_bool(rng, (p, q, r), 9)
            assert merge(a, b) == merge(b, a)

    def test_length_lower_bound(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(4000):
            a = random_bool(rng, (p, q, r), 9)
            b = random_bool(rng, (p, q, r), 9)
            m = merge(a, b)
            if m is not None:
                checked += 1
                assert length(m) >= max(length(a), length(b))
        assert checked > 500

    def test_reachable_by_simultaneous_substitution(self):
        # when P and Q are asserted equivalent, merge(P, Q) comes from P by
        # one simultaneous substitution whose premises the state validates
        rng = random.Random(12)
        checked = 0
        for _ in range(3000):
            a = random_bool(rng, (p, q, r, s), 9)
            b = random_bool(rng, (p, q, r, s), 9)
            m = merge(a, b)
            if m is None:
                continue
            subs = merge_substitution(a, b)
            assert apply_simultaneous(subs, a) == m
            try:
                state = DefState().assert_equiv(a, b)
            except (PatternClash, CircularityDetected):
                continue
            checked += 1
            for sub in subs:
                assert state.resolve(sub.atom) == state.resolve(sub.replacement)
        assert checked > 300


class TestAssertEquiv:
    def test_chained_resolution(self):
        state = DefState().assert_equiv(p, And(q, r)).assert_equiv(q, And(s, r))
        assert state.resolve(p) == parse_bool("((s & r) & r)")

    def test_reflexive_assertion_is_noop(self):
        state = DefState().assert_equiv(p, p)
        assert state.bindings() == {}

    def test_grow_non_circular_example(self):
        state = DefState().assert_equiv(p, And(q, r))
        with pytest.raises(CircularityDetected) as err:
            state.assert_equiv(q, And(p, r)).assert_equiv(s, p)
        assert err.value.witness.conclusion == \
            EquivLiteral(True, p, parse_bool("((p & r) & r)"))

    def test_pattern_clash(self):
        with pytest.raises(PatternClash):
            DefState().assert_equiv(Neg(p), And(q, r))
        with pytest.raises(PatternClash):
            DefState().assert_equiv(And(p, And(q, q)), And(p, Neg(r)))

    def test_value_semantics(self):
        base = DefState().assert_equiv(p, q)
        extended = base.assert_equiv(r, And(p, s))
        assert base.bindings() == {}
        assert extended.bindings() != {}
        assert base.resolve(r) == r

    def test_union_that_closes_a_cycle(self):
        # the union q == s moves s's binding onto q, whose image leads back
        # through p; only a check from the kept class q sees the cycle
        state = DefState().assert_equiv(p, And(q, r)).assert_equiv(s, And(p, r))
        with pytest.raises(CircularityDetected) as err:
            state.assert_equiv(q, s)
        assert err.value.witness.conclusion == \
            EquivLiteral(True, p, parse_bool("((p & r) & r)"))

    def test_representatives_are_least_and_images_resolve_closed(self):
        # class representatives are the alphabetically least members, and no
        # bound atom survives inside a fully resolved binding image
        rng = random.Random(18)
        checked = 0
        for _ in range(300):
            state = DefState()
            try:
                for _ in range(rng.randint(1, 5)):
                    state = state.assert_equiv(
                        rng.choice((p, q, r, s, t)),
                        random_bool(rng, (p, q, r, s, t), 9))
            except (PatternClash, CircularityDetected):
                continue
            checked += 1
            classes: dict = {}
            for atom in (p, q, r, s, t):
                classes.setdefault(state.rep(atom), []).append(atom)
            for rep_atom, members in classes.items():
                assert rep_atom == min(members)
            bound = set(state.bindings())
            for image in state.bindings().values():
                assert not (vocabulary(state.resolve(image)) & bound)
        assert checked > 50

    def test_binding_merge_through_decomposition(self):
        # two different images for p are combined componentwise
        state = DefState().assert_equiv(p, And(q, r)).assert_equiv(p, And(s, t))
        assert state.resolve(q) == state.resolve(s)
        assert state.resolve(r) == state.resolve(t)
        assert state.resolve(p) == state.resolve(And(q, r))


class TestResolve:
    def test_homomorphic(self):
        state = DefState().assert_equiv(p, And(q, r))
        assert state.resolve(Neg(p)) == Neg(And(q, r))

    def test_empty_state_identity(self):
        f = parse_bool("~(p & ~q)")
        assert DefState().resolve(f) == f

    def test_union_uses_least_representative(self):
        state = DefState().assert_equiv(p, q)
        assert state.resolve(q) == p
        assert state.resolve(p) == p

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(300):
            state = DefState()
            try:
                for _ in range(rng.randint(1, 4)):
                    state = state.assert_equiv(
                        rng.choice((p, q, r, s)), random_bool(rng, (p, q, r, s), 7))
            except (PatternClash, CircularityDetected):
                continue
            f = random_bool(rng, (p, q, r, s), 9)
            once = state.resolve(f)
            assert state.resolve(once) == once


class TestPick:
    def test_unique_longest(self):
        assert pick({p, And(q, r)}) == And(q, r)

    def test_lex_tie_break(self):
        assert pick({p, q}) == p

    def test_equal_length_compares_structurally(self):
        assert pick({And(q, p), And(p, q)}) == And(p, q)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pick(set())


class TestLiteralSat:
    def test_contradictory_pair(self):
        res = literal_sat([EquivLiteral(True, p, q), EquivLiteral(False, p, q)])
        assert not res.satisfiable and res.reason == "disequality"

    def test_forced_valuation_conflict(self):
        res = literal_sat([EquivLiteral(True, p, And(q, r))], [p, Neg(q)])
        assert not res.satisfiable and res.reason == "boolean"
        assert not single_world_oracle(
            [EquivLiteral(True, p, And(q, r))], [p, Neg(q)], (p, q, r))

    def test_satisfiable_with_seed(self):
        res = literal_sat([EquivLiteral(True, p, And(q, r))], [p])
        assert res.satisfiable
        assert res.definitions[p] == And(q, r)
        assert res.valuation[q] and res.valuation[r] and res.valuation[p]
        assert single_world_oracle(
            [EquivLiteral(True, p, And(q, r))], [p], (p, q, r))

    def test_clash_reason(self):
        res = literal_sat([EquivLiteral(True, Neg(p), And(q, r))])
        assert not res.satisfiable and res.reason == "pattern-clash"

    def test_circular_reason_carries_witness(self):
        res = literal_sat([EquivLiteral(True, p, And(q, r)),
                           EquivLiteral(True, q, And(p, r))])
        assert not res.satisfiable and res.reason == "circular"
        assert res.witness is not None
        assert res.witness.replay() == res.witness.conclusion

    def test_negative_literal_satisfiable_when_not_forced(self):
        res = literal_sat([EquivLiteral(False, And(p, q), And(q, p))])
        assert res.satisfiable

    def test_deep_equivalence_is_decided(self):
        # (((a0 & a1) & ...) & a3999) == (((b0 & b1) & ...) & b3999)
        n = 4000
        left, right = Atom("a0"), Atom("b0")
        for k in range(1, n):
            left, right = And(left, Atom(f"a{k}")), And(right, Atom(f"b{k}"))
        res = literal_sat([EquivLiteral(True, left, right)])
        assert res.satisfiable
        assert all(res.definitions[Atom(f"b{k}")] == Atom(f"a{k}") for k in range(n))

    def test_agrees_with_single_world_oracle(self):
        rng = random.Random(14)
        atoms = (p, q, r)
        checked = 0
        for _ in range(60):
            equivs = []
            for _ in range(rng.randint(0, 2)):
                equivs.append(EquivLiteral(
                    rng.random() < 0.8, rng.choice(atoms),
                    random_bool(rng, atoms, 5)))
            constraints = [random_bool(rng, atoms, 5)
                           for _ in range(rng.randint(0, 2))]
            mine = literal_sat(equivs, constraints).satisfiable
            oracle = single_world_oracle(equivs, constraints, atoms)
            # the oracle's definition depth is bounded; it may miss models
            # needing deeper images, so only its positive verdicts bind tightly
            if oracle:
                assert mine, (equivs, constraints)
            if not mine:
                assert not oracle, (equivs, constraints)
            checked += 1
        assert checked == 60


def _iff(a, b):
    return And(Neg(And(a, Neg(b))), Neg(And(b, Neg(a))))


class TestLiteralSatAgainstTruthTable:
    def test_constraint_sets(self):
        rng = random.Random(3003)
        verdicts = []
        for _ in range(300):
            constraints = [random_bool(rng, (p, q, r, s), 8) for _ in range(rng.randint(1, 6))]
            atoms = set().union(*map(vocabulary, constraints))
            least = next(truth_table_models(constraints, atoms), None)
            result = literal_sat([], constraints)
            verdicts.append(result.satisfiable)
            assert result.satisfiable == (least is not None), constraints
            if result.satisfiable:
                assert all(_eval_bool_map(c, result.valuation) for c in constraints)
                # the seed is the least assignment: sorted atoms, False first
                assert result.valuation == least
            else:
                assert result.reason == "boolean"
        assert 30 <= verdicts.count(False) <= 270

    def test_constraint_sets_under_definitions(self):
        rng = random.Random(3004)
        atoms = (p, q, r, s, t)
        verdicts = []
        for _ in range(200):
            equivs = []
            for k in rng.sample(range(3), rng.randint(0, 3)):
                image = random_bool(rng, atoms[k + 1:], 7)
                equivs.append(EquivLiteral(True, atoms[k], image))
            constraints = [random_bool(rng, atoms, 7) for _ in range(rng.randint(1, 4))]
            as_iffs = [_iff(lit.left, lit.right) for lit in equivs]
            result = literal_sat(equivs, constraints)
            brute = next(truth_table_models(constraints + as_iffs, atoms), None)
            verdicts.append(result.satisfiable)
            assert result.satisfiable == (brute is not None), (equivs, constraints)
            if result.satisfiable:
                vals = result.valuation
                assert all(_eval_bool_map(c, vals) for c in constraints + as_iffs)
        assert 20 <= verdicts.count(False) <= 180


class TestClosureOracleAgreement:
    def sample_literals(self, rng):
        atoms = (p, q, r, s)
        lits = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.7:
                lhs = rng.choice(atoms)
            else:
                lhs = random_bool(rng, atoms, 5)
            rhs = random_bool(rng, atoms, 9)
            lits.append((lhs, rhs))
        return lits

    def test_sat_verdicts_agree_with_bounded_closure(self):
        rng = random.Random(15)
        unsat_seen = sat_seen = 0
        for _ in range(250):
            lits = self.sample_literals(rng)
            closure = BoundedClosure(lits)
            if closure.truncated:
                continue
            res = literal_sat([EquivLiteral(True, a, b) for a, b in lits])
            assert res.satisfiable == (not closure.contradiction), lits
            if res.satisfiable:
                sat_seen += 1
            else:
                unsat_seen += 1
        assert sat_seen > 20 and unsat_seen > 20

    def test_resolve_matches_pick_of_closure_class(self):
        rng = random.Random(16)
        checked = 0
        for _ in range(300):
            lits = self.sample_literals(rng)
            closure = BoundedClosure(lits)
            if closure.truncated or closure.contradiction:
                continue
            res = literal_sat([EquivLiteral(True, a, b) for a, b in lits])
            if not res.satisfiable:
                continue
            state = DefState()
            for a, b in lits:
                state = state.assert_equiv(a, b)
            for atom in sorted({x for a, b in lits
                                for x in vocabulary(a) | vocabulary(b)}):
                resolved = state.resolve(atom)
                if length(resolved) > closure.max_len:
                    # the class is cut off at the oracle's length bound
                    continue
                cls = closure.class_of(atom)
                if cls:
                    assert resolved == pick(cls), (lits, atom)
                    checked += 1
        assert checked > 50


class TestWitness:
    def test_direct_circular_literal(self):
        with pytest.raises(CircularityDetected) as err:
            DefState().assert_equiv(p, Neg(p))
        w = err.value.witness
        assert w.conclusion == EquivLiteral(True, p, Neg(p))
        assert w.derivation == Derivation("input", p, Neg(p))

    def test_two_step_chain(self):
        with pytest.raises(CircularityDetected) as err:
            DefState().assert_equiv(p, r).assert_equiv(r, And(p, q))
        assert err.value.witness.conclusion == EquivLiteral(True, p, And(p, q))

    def test_witnesses_replay_and_are_circular(self):
        rng = random.Random(17)
        found = 0
        for _ in range(400):
            state = DefState()
            try:
                for _ in range(rng.randint(1, 5)):
                    lhs = rng.choice((p, q, r, s))
                    state = state.assert_equiv(lhs, random_bool(rng, (p, q, r, s), 9))
            except PatternClash:
                continue
            except CircularityDetected as err:
                found += 1
                lit = err.witness.replay()
                assert is_circular(lit.left, lit.right)
                assert lit == err.witness.conclusion
        assert found > 100

    def test_replay_checks_a_deep_conclusion(self):
        # the lemma substitutes (q & (q & ... (q & p))), 2,000 levels deep,
        # into p == (q & s), and shares it; replay compares the lemma with
        # its own substitution from an explicit stack
        deep = p
        for _ in range(2000):
            deep = And(q, deep)
        premise, base = Derivation("input", q, deep), Derivation("input", p, And(q, s))
        lemma = Derivation("occurrence-substitution", p, And(deep, s), (premise, base))
        assert CircularWitness(lemma).replay().right is lemma.right
        wrong = Derivation("occurrence-substitution", p, And(deep, t), (premise, base))
        with pytest.raises(ValueError, match="first q replaced"):
            CircularWitness(wrong).replay()

    def test_a_cycle_through_a_deep_image_gets_its_verdict(self):
        # the lemma copies the 3,000-deep path of p's image down to q
        res = _sat(["p == " + "~" * 3000 + "q", "q == (p & r)"])
        assert res.reason == "circular" and res.witness.replay() == res.witness.conclusion

    @pytest.mark.parametrize("premise, base, right, message", [
        # the lemma for p rewrites a literal for r
        (Derivation("input", q, And(p, s)), Derivation("input", r, And(q, s)),
         And(And(p, s), s), "another left side"),
        # the lemma puts (p & t) where its premise gives (p & s)
        (Derivation("input", q, And(p, s)), Derivation("input", p, And(q, s)),
         And(And(p, t), s), "first q replaced"),
        # the lemma concludes p == (s & s), in which p does not occur
        (Derivation("input", q, s), Derivation("input", p, And(q, s)), And(s, s),
         "is not circular"),
    ], ids=["left", "right", "circular"])
    def test_replay_refuses_a_lemma_that_does_not_hold(self, premise, base, right, message):
        lemma = Derivation("occurrence-substitution", p, right, (premise, base))
        with pytest.raises(ValueError, match=message):
            CircularWitness(lemma).replay()

    def test_union_edge_inside_the_cycle(self):
        # the dependency cycle runs through a class whose bound atom differs
        # from the atom the previous image mentions, so the witness stitches
        # across a union edge mid-walk
        a, b, c, d = (Atom(n) for n in "abcd")
        with pytest.raises(CircularityDetected) as err:
            (DefState().assert_equiv(a, And(b, c))
                       .assert_equiv(b, d)
                       .assert_equiv(d, And(a, c)))
        assert err.value.witness.conclusion == \
            EquivLiteral(True, a, And(And(a, c), c))

    def test_union_edge_is_the_earliest_event(self):
        a, b, c, d = (Atom(n) for n in "abcd")
        with pytest.raises(CircularityDetected) as err:
            (DefState().assert_equiv(d, b)
                       .assert_equiv(b, And(a, c))
                       .assert_equiv(a, And(d, c)))
        assert err.value.witness.conclusion == \
            EquivLiteral(True, d, And(And(d, c), c))

    def test_substitution_at_a_second_occurrence(self):
        # a chain from c's image once substituted the second d of ~(d & ~d);
        # composed innermost first, each lemma substitutes a first occurrence
        # into one image: a's, then c's
        equivs, _ = parse_literal_lines("c == ~(d & a)\na == ~d\na == ~(c & b)")
        witness = literal_sat(equivs).witness
        assert str(witness.conclusion) == "c == ~(d & ~(c & b))"
        outer = witness.derivation
        premise, base = outer.parts
        inner_premise, inner_base = premise.parts
        assert [outer.rule, premise.rule] == ["occurrence-substitution"] * 2
        assert [str(EquivLiteral(True, d.left, d.right))
                for d in (inner_premise, inner_base, premise, base)] == [
            "d == (c & b)", "a == ~d", "a == ~(c & b)", "c == ~(d & a)"]

    def test_witness_description_mentions_conclusion(self):
        res = literal_sat([EquivLiteral(True, p, And(q, r)),
                           EquivLiteral(True, q, And(p, r))])
        text = res.witness.describe()
        assert "p == ((p & r) & r)" in text and "circular" in text


class TestWitnessDigest:
    # sha256 over every verdict reason and detail, and for each circular set
    # the witness repr and the proof that defcheck writes for it
    DIGEST = "fb06f7a0e7d21ab92e8cb60af84a7982dace7dda840ea024c4673e8b27011a57"

    def test_witness_corpus_is_unchanged(self):
        h = hashlib.sha256()
        circular = 0
        for lines in witness_digest_corpus():
            equivs, _ = parse_literal_lines("\n".join(lines))
            res = literal_sat(equivs)
            h.update(f"{res.reason}|{res.detail}\n".encode())
            if res.witness is not None:
                circular += 1
                h.update(repr(res.witness).encode())
                h.update(proof_to_json(witness_to_proof(res.witness, equivs)).encode())
        assert circular == 1234
        assert h.hexdigest() == self.DIGEST, (
            "the witnesses or their proofs changed; a deliberate change to the "
            "witness shape updates DIGEST and says so in CHANGES.md")

    # sha256 over every verdict reason and detail, and for each circular set
    # what a user sees of its witness: the conclusion, the description and
    # the proof that defcheck writes; unlike DIGEST it does not hash the
    # witness repr, so it pins the output of a change to the node classes
    PROOF_DIGEST = "42fb05b71fa4c7f982579a601ef3b8f1008c3ae25b8977da53d9bfffb758d12e"

    def test_witness_output_is_unchanged(self):
        h = hashlib.sha256()
        circular = 0
        for lines in witness_digest_corpus():
            equivs, _ = parse_literal_lines("\n".join(lines))
            res = literal_sat(equivs)
            h.update(f"{res.reason}|{res.detail}\n".encode())
            if res.witness is not None:
                circular += 1
                h.update(str(res.witness.conclusion).encode())
                h.update(res.witness.describe().encode())
                h.update(proof_to_json(witness_to_proof(res.witness, equivs)).encode())
        assert circular == 1234
        assert h.hexdigest() == self.PROOF_DIGEST, (
            "the verdicts, witness texts or proof files changed; a deliberate "
            "change updates PROOF_DIGEST and says so in CHANGES.md")

    # what PROOF_DIGEST hashes, except that each proof is read back from its
    # file and hashed line by line, so it pins the proofs through a change
    # to the file's layout
    LINES_DIGEST = "92275abfb1e2c5a26ac87b6e57dd53bf04a936fec6a3567ed82c364905ac57fb"

    def test_witness_proofs_read_back_unchanged(self):
        h = hashlib.sha256()
        circular = 0
        for lines in witness_digest_corpus():
            equivs, _ = parse_literal_lines("\n".join(lines))
            res = literal_sat(equivs)
            h.update(f"{res.reason}|{res.detail}\n".encode())
            if res.witness is not None:
                circular += 1
                h.update(str(res.witness.conclusion).encode())
                h.update(res.witness.describe().encode())
                text = proof_to_json(witness_to_proof(res.witness, equivs))
                for line in proof_from_json(text):
                    h.update(f"{text_of_form(line.formula)}|{line.rule}|{line.refs}|"
                             f"{line.agent}\n".encode())
        assert circular == 1234
        assert h.hexdigest() == self.LINES_DIGEST, (
            "the verdicts, witness texts or the proofs read back from their "
            "files changed; a change of file layout alone leaves LINES_DIGEST as it is")

    # sha256 over each SAT seed as defcheck prints it (every definition and
    # value) and over the reason and detail of every other verdict; the
    # union-heavy sets pin that rep returns the least name of each class
    SEED_DIGEST = "8346f1d402f896559fd8085c5b2e627a9a8b1e042b674083ccc2079dbda15e52"

    def test_seed_corpus_is_unchanged(self):
        h = hashlib.sha256()
        sat = 0
        for lines in seed_digest_corpus():
            res = literal_sat(*parse_literal_lines("\n".join(lines)))
            if res.satisfiable:
                sat += 1
                defs = sorted(res.definitions.items())
                texts = text_of_batch([image for _, image in defs], sugar=False)
                for (a, _), text in zip(defs, texts):
                    h.update(f"{a} := {text} [{int(res.valuation[a])}]\n".encode())
            else:
                h.update(f"{res.reason}|{res.detail}\n".encode())
        assert sat == 589
        assert h.hexdigest() == self.SEED_DIGEST, (
            "the SAT seeds or the verdicts changed; a deliberate change updates "
            "SEED_DIGEST and says so in CHANGES.md")

    # what SEED_DIGEST hashes, except the detail of a circular verdict (it
    # prints the witness conclusion), and for each circular set of the
    # witness corpus whether its proof verifies; it pins the verdicts
    # through a change to the shape of the witnesses
    VERDICT_DIGEST = "60bd4e032284ede5711ce5a1c862701d3ed19454d3ae6aa72936a29724bb61aa"

    def test_verdicts_and_proof_outcomes_are_unchanged(self):
        h = hashlib.sha256()
        for lines in seed_digest_corpus():
            res = literal_sat(*parse_literal_lines("\n".join(lines)))
            if res.satisfiable:
                defs = sorted(res.definitions.items())
                texts = text_of_batch([image for _, image in defs], sugar=False)
                for (a, _), text in zip(defs, texts):
                    h.update(f"{a} := {text} [{int(res.valuation[a])}]\n".encode())
            else:
                detail = "" if res.reason == "circular" else res.detail
                h.update(f"{res.reason}|{detail}\n".encode())
        accepted = 0
        for lines in witness_digest_corpus():
            equivs, _ = parse_literal_lines("\n".join(lines))
            res = literal_sat(equivs)
            if res.witness is not None:
                ok = verify_proof(witness_to_proof(res.witness, equivs)).ok
                accepted += ok
                h.update(f"{ok}\n".encode())
        assert accepted == 1228
        assert h.hexdigest() == self.VERDICT_DIGEST, (
            "the verdicts or the proofs that verify changed")


def _count_lookups(monkeypatch, budget: Budget, field: str) -> None:
    """Make every DefState count each read of its dict `field` against budget."""
    class CountingDict(dict):
        def __getitem__(self, key):
            budget.spend()
            return super().__getitem__(key)

        def get(self, key, default=None):
            budget.spend()
            return super().get(key, default)

    @dataclasses.dataclass
    class CountingState(DefState):
        def __post_init__(self):
            setattr(self, field, CountingDict(getattr(self, field)))

    monkeypatch.setattr(paldef.definitions, "DefState", CountingState)


def _sat(lines: list[str]):
    return literal_sat(parse_literal_lines("\n".join(lines))[0])


_CYCLES = {
    "circular chain": lambda n: [f"x{k} == (x{(k + 1) % n} & r)" for k in range(n)],
    "circular unions": lambda n: [f"x{k} == (y{k} & r)" for k in range(n)]
    + [f"y{k} == x{(k + 1) % n}" for k in range(n)],
}


class TestGrowth:
    """Boolean search and unification work at doubling sizes."""

    @pytest.mark.xfail(strict=True, reason="literal_sat enumerates the assignments to the "
                       "free representatives in a fixed order")
    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_unit_constraints_are_decided_without_enumeration(self, monkeypatch, n):
        calls = []

        def counting_truth(formula, assignment):
            calls.append(formula)
            if len(calls) > 4 * n:
                raise AssertionError(f"more than {4 * n} truth calls")
            return truth(formula, assignment)

        monkeypatch.setattr(paldef.definitions, "truth", counting_truth)
        res = literal_sat([], [Atom(f"x{k}") for k in range(n)])
        assert res.satisfiable and all(res.valuation.values())

    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_occurs_check_on_the_reverse_chain_is_linear(self, monkeypatch, n):
        # each new definition x_k is mentioned by no image yet, so the
        # backward side of the search runs out at once
        budget = Budget(4 * n, "classes expanded by the occurs check")
        for name in ("_dependencies", "_dependents"):
            monkeypatch.setattr(DefState, name, budget.counting(getattr(DefState, name)))
        assert _sat([f"x{k} == (x{k + 1} & r)" for k in reversed(range(n))]).satisfiable

    @pytest.mark.parametrize("n", [250, 500, 1000])
    def test_union_paths_are_not_walked_while_unifying(self, monkeypatch, n):
        # every x_k == ~y_k meets the binding of x0 across the union path
        # x0 .. x_k, whose derivation is written out only for a witness
        budget = Budget(4 * n, "proof-forest reads and transitivity nodes")
        _count_lookups(monkeypatch, budget, "_edges")
        monkeypatch.setattr(paldef.definitions, "d_trans",
                            budget.counting(paldef.definitions.d_trans))
        res = _sat([f"x{k} == x{k + 1}" for k in range(n)]
                   + [f"x{k} == ~y{k}" for k in range(n)])
        assert res.satisfiable and res.definitions[Atom("x9")] == Neg(Atom("y0"))

    @pytest.mark.parametrize("family", ["circular chain", "circular unions"])
    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_a_long_cycle_substitutes_into_one_image_at_a_time(self, monkeypatch, family, n):
        # each lemma rewrites one binding image and shares the right side
        # built so far, so extraction and replay substitute into O(n) nodes
        budget = Budget(8 * n, "nodes of the formulas substituted into")

        def counting(subst, formula):
            for _ in postorder(formula):
                budget.spend()
            return apply_occ_subst(subst, formula)

        monkeypatch.setattr(paldef.definitions, "apply_occ_subst", counting)
        assert _sat(_CYCLES[family](n)).reason == "circular"

    def test_a_circular_chain_of_3200_gets_its_verdict(self):
        res = _sat(_CYCLES["circular chain"](3200))
        assert res.reason == "circular" and res.witness.replay() == res.witness.conclusion

    @pytest.mark.parametrize("n", [250, 500, 1000])
    def test_descending_unions_keep_rep_short(self, monkeypatch, n):
        # each union brings in a name less than every name of the class
        budget = Budget(4 * n, "parent hops in rep")
        _count_lookups(monkeypatch, budget, "_parent")
        names = sorted((f"x{k}" for k in range(n)), reverse=True)
        res = _sat([f"{a} == z" for a in names])
        assert res.satisfiable and set(res.definitions.values()) == {Atom("x0")}


class TestLiteralParsing:
    def test_mixed_file(self):
        equivs, constraints = parse_literal_lines(
            "# definitional part\n"
            "p == (q & r)\n"
            "p != ~q\n"
            "\n"
            "(p & ~r)\n"
        )
        assert equivs == [EquivLiteral(True, p, And(q, r)),
                          EquivLiteral(False, p, Neg(q))]
        assert constraints == [And(p, Neg(r))]

    def test_rejects_modal_lines(self):
        with pytest.raises(ValueError):
            parse_literal_lines("box i p\n")

"""Parser, printer, and syntactic-measure tests."""

import functools
import hashlib
import json
import random
import re

import pytest

import paldef
from paldef import syntax
from paldef.checker import _subformulas
from paldef.definitions import DefState, EquivLiteral, literal_sat, parse_literal_lines
from paldef.models import single_world_model, truth, unravel
from paldef.syntax import (
    And, AnnF, Atom, BoxF, DefIsF, EquivF, KdF, Neg, OccSubst, ParseError,
    apply_occ_subst, apply_simultaneous, as_or, is_circular, leaves, length,
    lex_compare, lex_key, mk_iff, mk_imp, mk_or, occurrences, parse_bool,
    parse_cited, parse_form, postorder, substitute, text_of_batch, text_of_bool,
    text_of_form, vocabulary,
)

from helpers import (
    all_bools, random_bool, random_form, sequential_simultaneous,
    witness_proof_files, written_out, ATOMS, AGENTS,
)

p, q, r, s = (Atom(n) for n in "pqrs")


class TestParseBool:
    def test_atom(self):
        assert parse_bool("p") == p

    def test_nested_conjunction(self):
        assert parse_bool("(p & (q & r))") == And(p, And(q, r))

    def test_unparenthesized_conjunction_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_bool("p & q")
        assert "parenthesized" in str(err.value)
        assert err.value.pos == 2

    def test_structural_not_associative(self):
        assert parse_bool("(p & (q & r))") != parse_bool("((p & q) & r)")

    @pytest.mark.parametrize("bad", [
        "", "(p)", "(p & q & r)", "(p &)", "~", "p q", "(p | q)", "P",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_bool(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_bool("(p ! q)")
        assert err.value.pos == 3


class TestPrint:
    def test_conjunction(self):
        assert text_of_bool(And(p, And(q, r))) == "(p & (q & r))"

    def test_negation(self):
        assert text_of_bool(Neg(p)) == "~p"

    def test_equivalence(self):
        assert text_of_form(EquivF(And(p, q), And(r, s))) == "((p & q) == (r & s))"

    def test_sugar_resugars(self):
        for text in ["(p -> q)", "(p | q)", "(p <-> q)", "(p != q)"]:
            assert text_of_form(parse_form(text)) == text

    def test_modal_layer(self):
        assert text_of_form(parse_form("box i ~p")) == "box i ~p"
        assert text_of_form(parse_form("[p] box i (q == r)")) == "[p] box i (q == r)"
        assert text_of_form(parse_form("kd i (p & q)")) == "kd i (p & q)"
        assert text_of_form(parse_form("p := (q & r)")) == "(p := (q & r))"


class TestParseForm:
    def test_box_binds_tighter_than_and(self):
        f = parse_form("box i p & (p == q)")
        assert f == And(BoxF("i", p), EquivF(p, q))

    def test_sugar_expansion(self):
        assert parse_form("p -> q") == mk_imp(p, q)
        assert parse_form("p | q") == mk_or(p, q)
        assert parse_form("p <-> q") == mk_iff(p, q)
        assert parse_form("p != q") == Neg(EquivF(p, q))

    def test_kx_is_sugar(self):
        assert parse_form("kx i (p & q)") == And(
            BoxF("i", And(p, q)), KdF("i", And(p, q)))

    def test_equiv_operands_are_strict(self):
        with pytest.raises(ParseError):
            parse_form("(p | q) == r")
        with pytest.raises(ParseError):
            parse_form("p == (q | r)")
        with pytest.raises(ParseError):
            parse_form("box i p == q")

    @pytest.mark.parametrize("bad", [
        "((p & q)) == r", "(p) == q", "kd i (p | q)", "~(p | q) == r",
        "p == q == r", "p := q := r", "kd i box j p", "kx i box j p",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_form(bad)

    @pytest.mark.parametrize("text,tree", [
        ("(p & q) & r == s", And(And(p, q), EquivF(r, s))),
        ("~p == q", EquivF(Neg(p), q)),
        ("~box i p", Neg(BoxF("i", p))),
    ])
    def test_precedence(self, text, tree):
        assert parse_form(text) == tree

    def test_defis_left_must_be_atom(self):
        with pytest.raises(ParseError) as err:
            parse_form("~p := q")
        assert "atom" in str(err.value)

    def test_announcement(self):
        f = parse_form("[r == ~r1][q == ~q1] box a p")
        assert isinstance(f, AnnF) and isinstance(f.inner, AnnF)

    def test_projection(self):
        # a boolean text is one tree in both layers, the sugar expanded
        assert parse_form("~(p & q)") == parse_bool("~(p & q)") == Neg(And(p, q))
        assert parse_form("p | q") == parse_bool("~(~p & ~q)")


class TestMeasures:
    def test_length(self):
        assert length(Neg(p)) == 2
        assert length(parse_bool("(p & (p & q))")) == 9
        assert length(p) == 1

    def test_vocabulary(self):
        assert vocabulary(p) == {p}
        assert vocabulary(parse_bool("(p & (p & q))")) == {p, q}
        assert vocabulary(Neg(Neg(r))) == {r}

    def test_occurrences(self):
        assert occurrences(p, And(p, p)) == 2
        assert occurrences(q, And(p, p)) == 0
        assert occurrences(p, And(p, And(q, p))) == 2

    def test_leaves_in_printed_order(self):
        assert leaves(parse_bool("(p & (q & p))")) == [p, q, p]
        assert leaves(Neg(r)) == [r]

    def test_leaves_agree_with_the_printed_text_and_occurrences(self):
        rng = random.Random(5)
        inputs = [And(p, p), And(p, And(q, p))] + [
            random_bool(rng, ATOMS, 11) for _ in range(200)]
        for f in inputs:
            names = re.findall(r"[a-z][a-z0-9_]*", text_of_bool(f))
            assert [a.name for a in leaves(f)] == names
            for atom in (p, q, r):
                assert occurrences(atom, f) == names.count(atom.name)

    def test_leaves_has_no_recursion_limit(self):
        f = p
        for _ in range(100_000):
            f = Neg(f)
        assert leaves(f) == [p]


DEEP = 30_000


def _deep(shape: str):
    """A DEEP-level `~` chain over p, or a right comb (p & (q & (r & ...)))."""
    if shape == "negations":
        f = p
        for _ in range(DEEP):
            f = Neg(f)
        return f
    f = p
    for k in range(DEEP):
        f = And((q, r, p)[k % 3], f)
    return f


_P_IS_Q_AND_R = single_world_model((p, q, r), (), {}, {p: And(q, r)})


def _p_defined(text: str) -> str:
    return text.replace("p", "(q & r)")


def _atom_names(text: str) -> list[str]:
    return sorted(set(text) & set("pqr"))


# walker -> (its result on a formula P, the expected result from P's text)
_DEEP_CASES = {
    "postorder": (lambda P: len(postorder(P)), lambda t: t.count("~") + 2 * t.count("&") + 1),
    "length": (length, lambda t: len(t.replace(" ", ""))),
    "vocabulary": (lambda P: sorted(a.name for a in vocabulary(P)), _atom_names),
    "form_vocabulary": (lambda P: sorted(a.name for a in vocabulary(BoxF("i", P))), _atom_names),
    "lex_key": (lambda P: lex_key(P)[0], lambda t: 1 if t[0] == "~" else 2),
    "leaves": (lambda P: len(leaves(P)), lambda t: t.count("&") + 1),
    "occurrences": (lambda P: occurrences(p, P), lambda t: t.count("p")),
    "apply_simultaneous": (  # the last p becomes ~s
        lambda P: text_of_bool(apply_simultaneous([OccSubst(occurrences(p, P), p, Neg(s))], P)),
        lambda t: t[::-1].replace("p", "s~", 1)[::-1]),
    "substitute": (lambda P: text_of_bool(substitute(P, lambda a: And(q, r) if a == p else a)),
                   _p_defined),
    "text_of_form": (text_of_form, lambda t: t),
    "parse_literal_lines": (lambda P: text_of_bool(parse_literal_lines(text_of_bool(P))[1][0]),
                            lambda t: t),
    "unravel": (lambda P: text_of_bool(unravel(_P_IS_Q_AND_R, "w0", P)), _p_defined),
    "truth": (lambda P: truth(P, {p: True, q: True, r: True}), lambda t: t.count("~") % 2 == 0),
    "resolve": (lambda P: text_of_bool(DefState().assert_equiv(p, And(q, r)).resolve(P)),
                _p_defined),
}


class TestDeepFormulas:
    """Every walker returns on formulas far deeper than the recursion limit;
    results are compared as text, because deep `==` still recurses."""

    @pytest.mark.parametrize("shape", ["negations", "comb"])
    @pytest.mark.parametrize("walker", list(_DEEP_CASES))
    def test_walkers_have_no_recursion_limit(self, shape, walker):
        P = _deep(shape)
        run, expected = _DEEP_CASES[walker]
        assert run(P) == expected(text_of_bool(P))

    def test_long_definition_chain_is_satisfiable(self):
        n = 6_000
        chain = [EquivLiteral(True, Atom(f"x{k}"), And(Atom(f"x{k + 1}"), r)) for k in range(n)]
        assert literal_sat(chain).satisfiable


class TestLexOrder:
    def test_atoms_negations_conjunctions(self):
        assert lex_compare(p, q) == -1
        assert lex_compare(Neg(p), Neg(q)) == -1
        assert lex_compare(And(p, r), And(q, r)) == -1

    def test_total_order_exhaustive(self):
        # all formulas of length <= 9 over three atoms, sorted; the order
        # must be strict and agree pairwise with the sort position
        forms = all_bools((p, q, r), 9)
        ordered = sorted(forms, key=lex_key)
        for a, b in zip(ordered, ordered[1:]):
            assert lex_compare(a, b) == -1
        index = {f: i for i, f in enumerate(ordered)}
        rng = random.Random(0)
        for _ in range(4000):
            a, b = rng.choice(forms), rng.choice(forms)
            expected = (index[a] > index[b]) - (index[a] < index[b])
            assert lex_compare(a, b) == expected

    def test_negation_and_conjunction_preserve_order(self):
        forms = all_bools((p, q, r), 7)
        rng = random.Random(1)
        for _ in range(3000):
            a, b = rng.choice(forms), rng.choice(forms)
            c = rng.choice(forms)
            assert lex_compare(Neg(a), Neg(b)) == lex_compare(a, b)
            assert lex_compare(And(a, c), And(b, c)) == lex_compare(a, b)
            assert lex_compare(And(c, a), And(c, b)) == lex_compare(a, b)

    def test_smaller_atom_gives_smaller_formula(self):
        rng = random.Random(2)
        atoms = (q, r, s)
        for _ in range(800):
            f = random_bool(rng, atoms, 9)
            for target in sorted(vocabulary(f)):
                smaller = [a for a in (p, q, r) if a < target]
                if not smaller:
                    continue
                replacement = rng.choice(smaller)
                k = rng.randint(1, occurrences(target, f))
                g = apply_occ_subst(OccSubst(k, target, replacement), f)
                assert lex_compare(g, f) == -1


class TestOccSubst:
    def test_second_occurrence_replaced(self):
        assert apply_occ_subst(OccSubst(2, p, And(q, r)), And(p, p)) == \
            And(p, And(q, r))

    def test_identity(self):
        assert apply_occ_subst(OccSubst(1, p, p), And(p, q)) == And(p, q)

    def test_single_occurrence(self):
        assert apply_occ_subst(OccSubst(1, q, Neg(r)), And(And(p, p), q)) == \
            And(And(p, p), Neg(r))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_occ_subst(OccSubst(3, p, q), And(p, p))
        with pytest.raises(ValueError):
            apply_occ_subst(OccSubst(1, s, q), And(p, p))

    def test_occurrences_count_from_one(self):
        with pytest.raises(ValueError, match="occurrence index starts at 1"):
            OccSubst(0, p, q)

    def test_occurrence_count_arithmetic(self):
        rng = random.Random(3)
        for _ in range(500):
            f = random_bool(rng, (p, q, r), 9)
            target = rng.choice(sorted(vocabulary(f)))
            replacement = random_bool(rng, (p, q, r), 7)
            k = rng.randint(1, occurrences(target, f))
            g = apply_occ_subst(OccSubst(k, target, replacement), f)
            assert occurrences(target, g) == (
                occurrences(target, f) - 1 + occurrences(target, replacement))

    def test_length_monotone_under_proper_substitution(self):
        rng = random.Random(4)
        for _ in range(500):
            f = random_bool(rng, (p, q, r), 9)
            target = rng.choice(sorted(vocabulary(f)))
            replacement = random_bool(rng, (p, q, r), 7)
            if length(replacement) <= 1:
                continue
            k = rng.randint(1, occurrences(target, f))
            g = apply_occ_subst(OccSubst(k, target, replacement), f)
            assert length(g) > length(f)


class TestSimultaneous:
    def test_two_atoms_at_once(self):
        subs = [OccSubst(2, p, And(q, r)), OccSubst(1, q, Neg(r))]
        assert apply_simultaneous(subs, And(And(p, p), q)) == \
            And(And(p, And(q, r)), Neg(r))

    def test_empty(self):
        f = parse_bool("(p & ~q)")
        assert apply_simultaneous([], f) == f

    def test_two_targets_same_atom(self):
        subs = [OccSubst(1, p, q), OccSubst(2, p, r)]
        assert apply_simultaneous(subs, And(p, p)) == And(q, r)

    def test_agrees_with_sequential_application(self):
        rng = random.Random(5)
        for _ in range(400):
            f = random_bool(rng, (p, q, r), 11)
            subs = []
            used = set()
            for _ in range(rng.randint(1, 3)):
                target = rng.choice(sorted(vocabulary(f)))
                k = rng.randint(1, occurrences(target, f))
                if (target, k) in used:
                    continue
                used.add((target, k))
                subs.append(OccSubst(k, target, random_bool(rng, (p, q, r), 5)))
            assert apply_simultaneous(subs, f) == sequential_simultaneous(subs, f)

    def test_duplicate_target_rejected(self):
        with pytest.raises(ValueError):
            apply_simultaneous([OccSubst(1, p, q), OccSubst(1, p, r)], And(p, p))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_simultaneous([OccSubst(2, q, r)], And(q, p))


class TestCircular:
    def test_examples(self):
        assert is_circular(p, And(p, q))
        assert is_circular(Neg(q), q)
        assert not is_circular(p, p)

    def test_symmetry(self):
        rng = random.Random(6)
        for _ in range(500):
            a = random_bool(rng, (p, q, r), 7)
            b = random_bool(rng, (p, q, r), 7)
            assert is_circular(a, b) == is_circular(b, a)

    def test_compound_sides_never_circular(self):
        assert not is_circular(And(p, q), And(p, q))
        assert not is_circular(Neg(p), And(p, q))


class TestRoundTrip:
    def test_bool_round_trip_exhaustive_small(self):
        for f in all_bools((p, q, r), 8):
            assert parse_bool(text_of_bool(f)) == f

    def test_form_round_trip_random(self):
        rng = random.Random(7)
        seen: dict[str, object] = {}
        for _ in range(1200):
            f = random_form(rng, ATOMS[:3], AGENTS, depth=rng.randint(0, 6),
                            allow_ann=True, allow_kd=True)
            text = text_of_form(f)
            assert parse_form(text) == f
            # distinct trees must print to distinct text
            assert seen.setdefault(text, f) == f

    @pytest.mark.parametrize("text,canonical", [
        ("~" * 30_000 + "p", "~" * 30_000 + "p"),
        ("(" * 4_000 + "p" + ")" * 4_000, "p"),
        ("box i " * 20_000 + "p", "box i " * 20_000 + "p"),
        ("p == " + "~" * 30_000 + "p", "(p == " + "~" * 30_000 + "p)"),
    ], ids=["negations", "parentheses", "boxes", "equivalence"])
    def test_text_layer_has_no_recursion_limit(self, text, canonical):
        f = parse_form(text)
        assert text_of_form(f) == canonical
        if all(type(g) in (Atom, Neg, And) for g in postorder(f)):
            assert text_of_bool(f) == canonical

    def test_atom_names_validated(self):
        with pytest.raises(ValueError):
            Atom("P")
        with pytest.raises(ValueError):
            Atom("box")
        with pytest.raises(ValueError):
            Atom("")
        with pytest.raises(ValueError):
            Atom("9x")
        with pytest.raises(ValueError):
            BoxF("kd", Atom("p"))
        with pytest.raises(ValueError):
            KdF("I", Atom("p"))
        # the parser builds its nodes without the check; they equal checked ones
        checked = BoxF("i", And(BoxF("j", Atom("p")), KdF("j", Atom("p"))))
        parsed = parse_form("box i kx j p")
        assert parsed == checked and hash(parsed) == hash(checked)


class TestFormerConstructorNames:
    def test_they_build_nodes_of_the_one_family(self):
        assert syntax.AtomF(p) is p
        assert type(syntax.NegF(p)) is Neg and syntax.NegF(p) == Neg(p)
        assert type(syntax.AndF(p, q)) is And and syntax.AndF(p, q) == And(p, q)
        with pytest.raises(TypeError):
            syntax.AtomF(Neg(p))

    def test_each_has_its_own_str_and_stays_private(self):
        # a tracer that wraps their __str__ must leave Neg's and And's alone
        for name in ("AtomF", "NegF", "AndF"):
            cls = getattr(syntax, name)
            assert "__str__" in vars(cls)
            assert vars(cls)["__str__"] not in (vars(Neg)["__str__"], vars(And)["__str__"])
            assert name not in syntax.__all__ and not hasattr(paldef, name)


def _shared_batch(rng, steps: int) -> list:
    """Formulas built from a pool of earlier nodes, so that node objects are
    shared between and within them; boolean nodes serve both as modal
    operands and as operands of `==`, `kd` and `:=`."""
    bools = list(ATOMS[:3])
    forms = list(bools)
    size = {id(a): 1 for a in bools}

    def pick(pool):
        # keep trees small: the one-formula printer expands every copy
        return rng.choice([f for f in pool[-12:] if size[id(f)] < 400] or pool[:3])

    def agent():
        return rng.choice(AGENTS)

    boolean = {"bneg": lambda a, b: Neg(a), "band": And, "bor": mk_or}
    operands = {"equiv": EquivF, "nequiv": lambda a, b: Neg(EquivF(a, b)),
                "kd": lambda a, b: KdF(agent(), a),
                "defis": lambda a, b: DefIsF(rng.choice(ATOMS[:3]), b)}
    modal = {"neg": lambda a, b: Neg(a), "and": And, "or": mk_or, "imp": mk_imp,
             "iff": mk_iff, "box": lambda a, b: BoxF(agent(), a), "ann": AnnF}
    for _ in range(steps):
        kind = rng.choice([*boolean, *operands, *modal])
        if kind in modal:
            f = modal[kind](pick(forms), pick(forms))
        else:
            f = {**boolean, **operands}[kind](pick(bools), pick(bools))
            if kind in boolean:
                bools.append(f)
        size[id(f)] = sum(1 for _ in postorder(f))
        forms.append(f)
    return rng.sample(forms, min(len(forms), 30))


class TestBatchPrinter:
    def test_batches_print_as_the_one_formula_printers(self):
        rng = random.Random(31)
        shared = 0
        for _ in range(60):
            batch = _shared_batch(rng, rng.randint(5, 40))
            shared += bool(syntax._shared_memo(batch))
            assert text_of_batch(batch) == [text_of_form(f) for f in batch]
            assert text_of_batch(batch, sugar=False) == [text_of_bool(f) for f in batch]
        assert shared == 60

    def test_a_shared_node_prints_with_and_without_sugar(self):
        x = mk_or(p, q)  # one node: `(p | q)` with sugar, `~(~p & ~q)` without
        batch = [x, EquivF(x, r), Neg(EquivF(r, x)), And(x, KdF("i", x)), DefIsF(s, x), x]
        assert text_of_batch(batch) == [
            "(p | q)", "(~(~p & ~q) == r)", "(r != ~(~p & ~q))",
            "((p | q) & kd i ~(~p & ~q))", "(s := ~(~p & ~q))", "(p | q)"]
        assert text_of_batch(batch) == [text_of_form(f) for f in batch]
        assert text_of_batch(batch, sugar=False) == [text_of_bool(f) for f in batch]

    def test_a_shared_node_leaves_sugar_as_the_one_formula_printer_does(self):
        # no parse builds `==` inside an operand of `==`, but a caller can;
        # printing y turns sugar back on before its parent's operand ends
        y = And(EquivF(p, q), r)
        batch = [EquivF(y, mk_or(p, q)), EquivF(y, mk_or(p, q))]
        assert text_of_batch(batch) == [text_of_form(f) for f in batch]

    def test_a_deep_shared_chain_has_no_recursion_limit(self):
        chain = p
        for _ in range(100_000):
            chain = Neg(chain)
        batch = [And(chain, q), BoxF("i", chain), chain]
        texts = ["(" + "~" * 100_000 + "p & q)", "box i " + "~" * 100_000 + "p",
                 "~" * 100_000 + "p"]
        assert text_of_batch(batch) == texts
        assert text_of_batch(batch, sugar=False) == texts


def _reprs(forms) -> list[str]:
    return [repr(f) for f in forms]


def _error(parse, text: str):
    """(message, position) of the ParseError that parse raises on text."""
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value), err.value.pos


def _read(texts, terms=()) -> list:
    """The trees of texts that cite terms, each term read once."""
    cited = []
    for term in terms:
        cited.append(parse_cited(term, cited))
    return [parse_cited(text, cited)[0] for text in texts]


class TestBatchParser:
    """A proof file's texts: terms, each read once, and lines that cite them."""

    def test_witness_proofs_parse_as_one_formula_at_a_time(self):
        shortened = 0
        for text in witness_proof_files():
            data = json.loads(text)
            texts = [entry["formula"] for entry in data["lines"]]
            full = [written_out(t, data["terms"]) for t in texts]
            cited = []
            for term in data["terms"]:
                cited.append(parse_cited(term, cited))
            read = [parse_cited(t, cited) for t in texts]
            assert _reprs(f for f, _, _ in read) == _reprs(map(parse_form, full))
            # each text's length with its citations written out
            assert [size for _, _, size in read] == list(map(len, full))
            shortened += sum(t != f for t, f in zip(texts, full))
        assert shortened > 10_000

    def test_random_batches_parse_as_one_formula_at_a_time(self):
        rng = random.Random(43)
        named = 0
        for _ in range(400):
            batch = _shared_batch(rng, rng.randint(5, 40))
            for sugar in (True, False):
                terms = []
                texts = text_of_batch(batch, sugar, terms)
                assert _read(texts, terms) == batch
                assert [written_out(t, terms) for t in texts] == text_of_batch(batch, sugar)
                named += len(terms)
        assert named > 5_000

    def test_rejected_texts_fail_as_alone_with_terms_to_cite(self):
        accepted, rejected = _split_corpus()
        cited = [parse_cited(text, []) for text in accepted[:3000]]
        for text in rejected:
            assert _error(lambda t: parse_cited(t, cited), text) == _error(parse_form, text)
        # a term that does not parse fails as it does alone
        for text in rejected[::2000]:
            assert _error(lambda t: _read([], [*accepted[:20], t]), text) == \
                _error(parse_form, text)

    def test_a_loose_term_under_strict_operators_fails_at_its_citation(self):
        # a modal term, a bare conjunction in two pairs of parentheses, and a
        # strict conjunction that `!=` then takes as it is
        inside = 0
        for span in ("(box i p & (q & r))", "(((p & q) & (r & s)))", "((p & q) & (r & ~s))"):
            first, again = _read(["q | $1", "~$1"], [span])
            assert again.inner is as_or(first)[1]
            for later in (f"kd i {span}", f"p & kx j {span}", f"({span} == q)",
                          f"(p != {span})", f"(p := {span})", f"[q] (r := {span})",
                          f"kd i ({span})", f"(({span}) == q)", f"~({span} & p)"):
                at = later.index(span)
                cited = later.replace(span, "$1")
                try:
                    alone = parse_form(later)
                except ParseError as e:
                    message, pos = _error(lambda t: _read([t], [span]), cited)
                    assert message.split(" (at")[0] == str(e).split(" (at")[0]
                    # an error inside the term is reported at its citation
                    inside += at <= e.pos < at + len(span)
                    assert pos == (e.pos if e.pos < at else at if e.pos < at + len(span)
                                   else e.pos - len(span) + 2)
                else:
                    assert _read([cited], [span]) == [alone]
        assert inside == 6

    def test_a_deep_span_shared_by_two_lines_has_no_recursion_limit(self):
        # printing is one-to-one on trees, and the term is a printed form
        deep = "(" * 30_000 + "p" + " & q)" * 30_000
        first, second = _read(["$1", "~$1 & $1"], [deep])
        assert second.left.inner is first and second.right is first
        assert text_of_form(first) == deep
        terms = []
        assert text_of_batch([first, second], terms=terms) == ["$1", "(~$1 & $1)"]
        assert terms == [deep]

    def test_a_citation_outside_a_proof_file_is_an_unexpected_character(self):
        for text in ("$1", "p & $1", "kd i $2"):
            message, pos = _error(parse_form, text)
            assert message.startswith("unexpected character") and text[pos] == "$"
            assert _error(parse_bool, text) == (message, pos)

    @pytest.mark.parametrize("text, pos", [("$0", 0), ("$3", 0), ("p & ~$12", 5),
                                           ("($1 & $7)", 6)])
    def test_a_citation_of_no_earlier_term_is_an_error(self, text, pos):
        message, at = _error(lambda t: _read([t], ["p", "(p & q)"]), text)
        assert at == pos and message.startswith(f"{text[pos:pos + 3].rstrip(')')} cites no")


@functools.lru_cache(maxsize=None)
def _split_corpus() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The texts of the parse corpus that parse_form accepts, and the rest."""
    split = ([], [])
    for text in _parse_corpus():
        try:
            parse_form(text)
        except ParseError:
            split[1].append(text)
        else:
            split[0].append(text)
    return tuple(split[0]), tuple(split[1])


_TOKENS = ("p", "q", "r", "i", "box", "kd", "kx", "~", "&", "|", "->", "<->",
           "==", "!=", ":=", "(", ")", "[", "]")


def _parse_corpus():
    """Printed random formulas, the same with one token deleted or inserted,
    and random token strings: 21,000 texts near the edge of the language."""
    rng = random.Random(12)
    for _ in range(7_000):
        yield text_of_form(random_form(rng, ATOMS[:3], AGENTS, depth=rng.randint(0, 5),
                                       allow_ann=True, allow_kd=True))
    for _ in range(7_000):
        text = text_of_form(random_form(rng, ATOMS[:3], AGENTS, depth=rng.randint(0, 4),
                                        allow_ann=True, allow_kd=True))
        tokens = re.findall(r"[a-z][a-z0-9_]*|<->|->|==|!=|:=|\S", text)
        k = rng.randrange(len(tokens))
        if rng.random() < 0.5:
            del tokens[k]
        else:
            tokens.insert(k, rng.choice(_TOKENS))
        yield " ".join(tokens)
    for _ in range(7_000):
        yield " ".join(rng.choices(_TOKENS, k=rng.randint(1, 9)))


class TestParseDigest:
    # sha256 over each text and, for parse_form and parse_bool, the repr of
    # its tree or the fact of a ParseError; recorded with the recursive-descent
    # parser that the operator-precedence loop replaced, with the modal
    # layer's own atom, negation and conjunction nodes written as Atom, Neg
    # and And since the two layers share one node family
    DIGEST = "157a4418a1142fe14361ec350255535dc2bf1529bacdfa0da4497241d93366d4"

    def test_language_is_unchanged(self):
        h = hashlib.sha256()
        accepted = [0, 0]
        for text in _parse_corpus():
            h.update(text.encode() + b"\n")
            for k, parse in enumerate((parse_form, parse_bool)):
                try:
                    tree = repr(parse(text))
                    accepted[k] += 1
                except ParseError:
                    tree = "ParseError"
                h.update(tree.encode() + b"\n")
        assert accepted == [7844, 2216]
        assert h.hexdigest() == self.DIGEST, (
            "the parser accepts another language or builds other trees; a "
            "deliberate change to the language updates DIGEST and says so in CHANGES.md")


class TestPrintDigest:
    # sha256 over each text of the parse corpus and, where it parses, the
    # printed text of its parse_form tree, of every modal subformula that
    # checker._subformulas lists for it, and of its parse_bool tree through
    # text_of_bool and str; recorded before the two formula layers shared
    # one node family
    DIGEST = "9665476126d7424a923d9b54285085b8060e1a5e03fa43380ce27eb37f204ef0"

    def test_printed_texts_are_unchanged(self):
        h = hashlib.sha256()
        for text in _parse_corpus():
            h.update(text.encode() + b"\n")
            try:
                f = parse_form(text)
            except ParseError:
                h.update(b"ParseError\n")
            else:
                for g in [f] + _subformulas(f):
                    h.update(text_of_form(g).encode() + b"\n")
            try:
                P = parse_bool(text)
            except ParseError:
                h.update(b"ParseError\n")
            else:
                h.update(f"{text_of_bool(P)}|{P}\n".encode())
        assert h.hexdigest() == self.DIGEST, (
            "a printed text changed; the printer must print every tree as before")

"""End-to-end CLI behaviour, including exit codes and machine output."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from paldef import syntax
from paldef.cli import main
from paldef.models import dumps, fixture_path, load
from paldef.proof import proof_from_json, verify_proof

from helpers import written_out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fig1_conjunction_true(self, capsys):
        code, out, _ = run(capsys, "check", "fig1.json",
                           "box i p & (p == q)", "--world", "middle")
        assert code == 0 and out.strip() == "true"

    def test_fig2_defaults_to_actual_world(self, capsys):
        code, out, _ = run(capsys, "check", "fig2.json", "box i p")
        assert code == 1 and out.strip() == "false"

    def test_fig4_agreement_formula(self, capsys):
        code, out, _ = run(capsys, "check", "fig4.json",
                           "p & box i p & box j p", "--world", "middle")
        assert code == 0 and out.strip() == "true"

    def test_verbose_prints_extensions(self, capsys):
        code, out, _ = run(capsys, "check", "fig2.json", "box i p", "--verbose")
        assert code == 1 and "box i p" in out and "{" in out

    def test_unknown_world_is_an_error(self, capsys):
        code, _, err = run(capsys, "check", "fig1.json", "p", "--world", "nowhere")
        assert code == 2 and "error" in err

    def test_empty_world_is_not_the_actual_world(self, capsys):
        code, out, _ = run(capsys, "--machine", "check", "fig1.json", "box i p", "--world", "")
        assert code == 2
        assert json.loads(out)["details"] == {"message": "unknown world ''"}

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "check", "fig1.json", "p & ")
        assert code == 2 and "error" in err


class TestValidate:
    def test_fixture_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "fig3.json")
        assert code == 0 and out.strip() == "OK"

    def test_broken_model_reports_violation(self, capsys, tmp_path):
        data = json.loads(dumps(load(fixture_path("fig1"))))
        data["worlds"][1]["valuation"]["q"] = False
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1 and "INVALID" in out and "middle" in out


class TestReduceSatValid:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "[r]p")
        assert code == 0 and out.strip() == "(r -> p)"

    def test_valid(self, capsys):
        code, out, _ = run(capsys, "valid", "((p & (q & r)) != ((p & q) & r))")
        assert code == 0 and out.strip() == "valid"

    def test_not_valid_ships_countermodel(self, capsys):
        code, out, _ = run(capsys, "--machine", "valid", "p")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "not-valid"
        assert "countermodel" in payload["details"]

    def test_sat_machine_model(self, capsys):
        code, out, _ = run(capsys, "--machine", "sat", "box i (p == q) & ~box i p")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "sat"
        assert payload["details"]["model"]["worlds"]

    def test_unsat(self, capsys):
        code, out, _ = run(capsys, "sat", "p == (p & p)")
        assert code == 1 and out.strip() == "UNSAT"

    @pytest.mark.parametrize("argv,op", [
        (("sat", "kd i p"), "kd"),
        (("valid", "p := q"), ":="),
    ])
    def test_unsupported_operator_is_named(self, capsys, argv, op):
        code, out, _ = run(capsys, "--machine", *argv)
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "error"
        message = payload["details"]["message"]
        assert f"does not decide {op};" in message and "announcement" not in message


class TestDefcheck:
    def test_grow_non_circular_pipeline(self, capsys, tmp_path):
        lits = tmp_path / "grow.lits"
        lits.write_text("p == (q & r)\nq == (p & r)\ns == p\n", encoding="utf-8")
        code, out, _ = run(capsys, "defcheck", str(lits))
        assert code == 1
        assert "UNSAT (circular)" in out
        assert "p == ((p & r) & r)" in out
        witness = tmp_path / "grow.witness.json"
        assert witness.exists()
        assert verify_proof(proof_from_json(witness.read_text(encoding="utf-8"))).ok

    def test_single_equivalence_sat(self, capsys, tmp_path):
        lits = tmp_path / "one.lits"
        lits.write_text("p == q\n", encoding="utf-8")
        code, out, _ = run(capsys, "defcheck", str(lits))
        assert code == 0 and out.startswith("SAT")

    def test_prefix_chain_sat(self, capsys, tmp_path):
        lits = tmp_path / "prefix.lits"
        lits.write_text("p1 == (p2 & p3)\np2 == (p3 & p4)\n", encoding="utf-8")
        code, out, _ = run(capsys, "defcheck", str(lits))
        assert code == 0 and out.startswith("SAT")

    def test_machine_output_includes_witness_path(self, capsys, tmp_path):
        lits = tmp_path / "circ.lits"
        lits.write_text("p == ~p\n", encoding="utf-8")
        out_path = tmp_path / "w.json"
        code, out, _ = run(capsys, "--machine", "defcheck", str(lits),
                           "--witness-out", str(out_path))
        assert code == 1
        payload = json.loads(out)
        assert payload["details"]["witness_conclusion"] == "p == ~p"
        assert out_path.exists()

    def test_long_circular_chain_proof_verifies(self, capsys, tmp_path):
        lits = tmp_path / "circ16.lits"
        lits.write_text("".join(f"x{k} == (x{(k + 1) % 16} & r)\n" for k in range(16)),
                        encoding="utf-8")
        out_path = tmp_path / "circ16.json"
        code, _, _ = run(capsys, "defcheck", str(lits), "--witness-out", str(out_path))
        assert code == 1
        code, out, _ = run(capsys, "prove-verify", str(out_path))
        assert code == 0 and out.strip() == "ok"

    def test_proof_uses_only_the_premises_of_the_witness(self, capsys, tmp_path):
        lines = ["x0 == (x1 & r)", "x1 == (x0 & r)"] + [f"y{k} == ~z{k}" for k in range(25)]
        lits = tmp_path / "two.lits"
        lits.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "two.json"
        code, _, _ = run(capsys, "defcheck", str(lits), "--witness-out", str(out_path))
        assert code == 1
        text = out_path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert written_out(data["lines"][-1]["formula"], data["terms"]) == \
            "~((x0 == (x1 & r)) & (x1 == (x0 & r)))"
        assert "y0" not in text and "z24" not in text
        code, out, _ = run(capsys, "prove-verify", str(out_path))
        assert code == 0 and out.strip() == "ok"


class TestProveVerify:
    def test_ok_and_rejection(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps([
            {"formula": "p -> p", "rule": "taut"},
            {"formula": "box i (p -> p)", "rule": "nec", "refs": [1], "agent": "i"},
        ]), encoding="utf-8")
        code, out, _ = run(capsys, "prove-verify", str(good))
        assert code == 0 and out.strip() == "ok"

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([
            {"formula": "p == q", "rule": "hypothesis"},
        ]), encoding="utf-8")
        code, out, _ = run(capsys, "prove-verify", str(bad))
        assert code == 1 and "line 1" in out

    def test_a_list_of_lines_still_verifies(self, capsys, tmp_path):
        lits = tmp_path / "circ.lits"
        lits.write_text("p == (q & r)\nq == (p & r)\n", encoding="utf-8")
        named = tmp_path / "named.json"
        run(capsys, "defcheck", str(lits), "--witness-out", str(named))
        data = json.loads(named.read_text(encoding="utf-8"))
        assert data["terms"]
        for entry in data["lines"]:
            entry["formula"] = written_out(entry["formula"], data["terms"])
        listed = tmp_path / "listed.json"
        listed.write_text(json.dumps(data["lines"], indent=2), encoding="utf-8")
        for path in (named, listed):
            code, out, _ = run(capsys, "--machine", "prove-verify", str(path))
            assert code == 0 and json.loads(out)["details"] == {"lines": len(data["lines"])}

    @pytest.mark.parametrize("terms, formula, where", [
        (["(p & q)", "~$2"], "$1", 'proof term 2: $2 cites no earlier term'),
        (["(p & q)", "~$0"], "$1", 'proof term 2: $0 cites no earlier term'),
        (["(p & q)"], "($1 -> $2)", 'proof line 2: "formula": $2 cites no earlier term'),
        (["(p & q)", "~$1"], "(p -> $", 'proof line 2: "formula": unexpected character'),
        (["(p & q)", "$1 &"], "$1", 'proof term 2: expected a formula'),
        (["(p & q)", 7], "$1", 'proof term 2 must be a string'),
    ])
    def test_a_bad_term_or_citation_is_an_error_naming_where_it_stands(
            self, capsys, tmp_path, terms, formula, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"terms": terms, "lines": [
            {"formula": "(p -> p)", "rule": "taut"}, {"formula": formula, "rule": "taut"}]}),
            encoding="utf-8")
        code, out, _ = run(capsys, "--machine", "prove-verify", str(path))
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "error"
        assert payload["details"]["message"].startswith(where)

    def test_a_file_of_doubling_terms_is_refused_at_once(self, capsys, tmp_path):
        # 31 terms, each citing the one before twice: the one line stands
        # for a formula of 2^31 atoms, which no verifier could walk
        terms = ["(p & p)"] + [f"(${k} & ${k})" for k in range(1, 31)]
        path = tmp_path / "doubling.json"
        path.write_text(json.dumps({"terms": terms, "lines": [
            {"formula": "($31 -> $31)", "rule": "taut"}]}), encoding="utf-8")
        assert path.stat().st_size < 600
        start = time.perf_counter()
        code, out, _ = run(capsys, "--machine", "prove-verify", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert json.loads(out)["details"]["message"] == (
            "proof line 1: with their terms written out, the lines are more than "
            "32 times as long as the file")


def _fig1_with(path, value):
    data = json.loads(dumps(load(fixture_path("fig1"))))
    *keys, last = path
    target = data
    for key in keys:
        target = target[key]
    target[last] = value
    return data


def _line(**fields):
    return [{"formula": "p -> p", "rule": "taut", **fields}]


class TestMalformedFiles:
    @pytest.mark.parametrize("argv,content,field", [
        (("prove-verify",), [1], "proof line 1"),
        (("prove-verify",), [{"rule": "axiom"}], "'formula'"),
        (("prove-verify",), _line(refs="ab"), '"refs"'),
        (("prove-verify",), _line(refs=[1.5]), '"refs"'),
        (("prove-verify",), _line(rule="nec", refs=[1], agent=5), '"agent"'),
        (("prove-verify",), _line(formula=5), '"formula"'),
        (("validate",), [], "model file"),
        (("validate",), {"vocabulary": 5}, '"vocabulary"'),
        (("validate",), _fig1_with(("worlds", 0, "def", "p"), 7), '"def"'),
        (("validate",), _fig1_with(("relations", "i", 0), ["left"]), '"relations"'),
        (("check", "p"), [], "model file"),
        (("check", "p"), {"vocabulary": 5}, '"vocabulary"'),
        (("check", "p"), _fig1_with(("worlds", 0, "def", "p"), 7), '"def"'),
        (("validate",), _fig1_with(("relations", "i", 0), "ab"), '"relations" of i'),
        (("validate",), _fig1_with(("relations", "i", 0), ["left", "left", "left"]),
         '"relations" of i'),
        (("validate",), _fig1_with(("relations", "i", 0), ["left", 1]), '"relations" of i'),
        (("validate",), _fig1_with(("relations", "i"), "ab"), '"relations" of i'),
        (("validate",), _fig1_with(("relations", "i"), {"left": "left"}), '"relations" of i'),
        (("validate",), _fig1_with(("vocabulary",), ["p", "q", "r", "p"]), "duplicate vocabulary"),
        (("validate",), _fig1_with(("agents",), ["i", "i"]), "duplicate agents"),
        (("prove-verify",), _line(formula="p -> "), 'proof line 1: "formula": expected a formula'),
        # the first bad line is reported, whatever is wrong with it
        (("prove-verify",), _line() + _line(formula="(p") + _line(refs="ab"),
         'proof line 2: "formula": expected \')\''),
        (("prove-verify",), _line() + _line(refs="ab") + _line(formula="(p"),
         'proof line 2: "refs"'),
        (("prove-verify",), _line(formula="((p -> p) & (q | r))") + [{"formula": "p"}],
         'proof line 2 is missing key'),
        (("prove-verify",), _line(formula="((p -> p) & (q | r))")
         + _line(formula="((p -> p) & (q | r)) q"),
         'proof line 2: "formula": expected an operator or the end of the input (at position 21'),
        (("prove-verify",), 5, "a proof file must be an object"),
        (("prove-verify",), {"terms": []}, "a proof file is missing key 'lines'"),
        (("prove-verify",), {"terms": "$1", "lines": []}, '"terms" must be a list'),
        (("prove-verify",), {"terms": [], "lines": {}}, '"lines" must be a list'),
        # an agent that is a string but not a name, beside agent=5 above
        (("prove-verify",), _line() + _line(formula="box i (p -> p)", rule="nec", refs=[1],
                                            agent="Bob"),
         'proof line 2: "agent": invalid agent name \'Bob\''),
    ])
    def test_wrong_shape_is_an_error_naming_the_field(self, capsys, tmp_path,
                                                       argv, content, field):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        code, out, _ = run(capsys, "--machine", argv[0], str(path), *argv[1:])
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "error" and field in payload["details"]["message"]


class TestMiscellaneous:
    def test_parse_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "--machine", "parse", "p->q")
        assert code == 0
        assert json.loads(out)["details"]["canonical"] == "(p -> q)"

    def test_fixtures_lists_all(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        for name in ("fig1", "fig2", "fig3", "fig4"):
            assert name in out

    def test_fixture_directory_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PALDEF_FIXTURES", str(tmp_path))
        code, _, err = run(capsys, "check", "fig1.json", "p")
        assert code == 2  # override points at an empty directory

    def test_missing_file_is_an_error(self, capsys):
        code, _, err = run(capsys, "prove-verify", "/nonexistent/proof.json")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv, message", [
        (("parse",), "pass a formula inline or with --file"),
        (("parse", "p & $1"), "unexpected character (at position 4: '$1')"),
        (("check", "/nonexistent/model.json", "p"),
         "no such model file or fixture: /nonexistent/model.json"),
        (("check", "{no_actual}", "p"), "model has no actual world; pass --world"),
        (("defcheck", "/nonexistent/input.lits"), "no such file: /nonexistent/input.lits"),
    ])
    def test_an_error_is_one_json_object(self, capsys, tmp_path, argv, message):
        model = _fig1_with(("actual",), None)
        del model["actual"]
        path = tmp_path / "no_actual.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        argv = [arg.format(no_actual=path) for arg in argv]
        code, out, err = run(capsys, "--machine", *argv)
        assert code == 2 and err == ""
        assert out.count("\n") == 1
        assert json.loads(out) == {"subcommand": argv[0], "verdict": "error",
                                   "details": {"message": message}}

    def test_machine_error_payload(self, capsys):
        code, out, _ = run(capsys, "--machine", "check", "fig1.json", "p &")
        assert code == 2
        assert json.loads(out)["verdict"] == "error"


class TestDeepInput:
    # parsing, printing and the formula walkers have no depth limit, so parse
    # and defcheck take deep input; evaluate is still recursive, so `check`
    # reports deep input as an error
    @pytest.mark.parametrize("text,canonical", [
        ("~" * 3000 + "p", "~" * 3000 + "p"),
        ("(" * 400 + "p" + ")" * 400, "p"),
        ("~" * 30000 + "p", "~" * 30000 + "p"),
        ("(" * 4000 + "p" + ")" * 4000, "p"),
    ], ids=["negations", "parentheses", "negations-10x", "parentheses-10x"])
    def test_parse_has_no_depth_limit(self, capsys, text, canonical):
        code, out, err = run(capsys, "--machine", "parse", text)
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["details"]["canonical"] == canonical

    def test_defcheck_has_no_depth_limit(self, capsys, tmp_path):
        n = 600
        path = tmp_path / "linear.lits"
        path.write_text("".join(f"x{k} == (x{k + 1} & r)\n" for k in range(n)),
                        encoding="utf-8")
        code, out, err = run(capsys, "--machine", "defcheck", str(path))
        assert code == 0 and "Traceback" not in err
        seed = json.loads(out)["details"]["seed"]
        defs, vals = seed["def"], seed["valuation"]
        assert defs["r"] == "r" and defs[f"x{n}"] == f"x{n}"
        for k in range(n):  # every input literal holds in the seed
            assert defs[f"x{k}"] == f"({defs[f'x{k + 1}']} & {defs['r']})"
            assert vals[f"x{k}"] == (vals[f"x{k + 1}"] and vals["r"])

    def test_defcheck_decides_a_deep_equivalence(self, capsys, tmp_path):
        # unification takes the two sides apart from an explicit stack and
        # never compares them whole
        n = 2000

        def conjunction(prefix):
            return "(" * (n - 1) + f"{prefix}0" + "".join(f" & {prefix}{k})" for k in range(1, n))

        path = tmp_path / "deep.lits"
        path.write_text(f"{conjunction('a')} == {conjunction('b')}\n", encoding="utf-8")
        code, out, err = run(capsys, "--machine", "defcheck", str(path))
        assert code == 0 and "Traceback" not in err
        seed = json.loads(out)["details"]["seed"]
        assert all(seed["def"][f"b{k}"] == f"a{k}" for k in range(n))
        assert not any(seed["valuation"].values())

    def test_prove_verify_checks_a_deep_taut_line(self, capsys, tmp_path):
        # the tautology check encodes the ~/& skeleton from an explicit
        # stack; the only leaf is p
        deep = "~" * 3000 + "p"
        path = tmp_path / "deep.json"
        path.write_text(json.dumps([{"formula": f"({deep} <-> {deep})", "rule": "taut"}]),
                        encoding="utf-8")
        code, out, err = run(capsys, "--machine", "prove-verify", str(path))
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["verdict"] == "ok"

    @pytest.mark.xfail(strict=True, reason="witness_to_proof hashes its lines recursively, and "
                       "the premise conjunctions of its lemmas nest as deep as the union path")
    def test_defcheck_proves_a_circle_through_a_long_union_path(self, capsys, tmp_path):
        # every line is shallow and the witness concludes b == (b & r), but
        # its cycle runs through m unions, so the lemmas conjoin m premises
        m = 600
        lines = ["a0 == (b & c)", *(f"a{k} == a{k + 1}" for k in range(m)),
                 f"a{m} == (d & e)", "d == (b & r)"]
        path = tmp_path / "unions.lits"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "unions.json"
        code, out, err = run(capsys, "--machine", "defcheck", str(path),
                             "--witness-out", str(out_path))
        assert code == 1 and "Traceback" not in err
        assert json.loads(out)["details"]["witness_conclusion"] == "b == (b & r)"
        assert len(proof_from_json(out_path.read_text(encoding="utf-8"))) > m

    @pytest.mark.parametrize("argv", [
        ("check", "fig1", "box i " * 2000 + "p"),
    ], ids=["boxes"])
    def test_too_deep_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, "--machine", *argv)
        assert code == 2 and "Traceback" not in err
        payload = json.loads(out)
        assert payload["verdict"] == "error"
        assert payload["details"]["message"] == "input is nested too deeply"


class TestGrowth:
    """Printer work at doubling sizes.  In the seed of the linear chain
    `x_k == (x_{k+1} & r)` each resolved definition holds the next one, so
    its printed size grows as n squared while its distinct nodes grow as n."""

    @pytest.mark.parametrize("n", [250, 500, 1000])
    def test_seed_printing_expands_each_node_once(self, capsys, tmp_path, monkeypatch, n):
        steps = []

        class CountingMemo(dict):
            """Counts the printer's lookups: one per compound node it pops,
            expanded or reused, and one per memo marker."""

            def __contains__(self, key):
                steps.append(key)
                return super().__contains__(key)

        shared_memo = syntax._shared_memo
        monkeypatch.setattr(syntax, "_shared_memo",
                            lambda forms: CountingMemo(shared_memo(forms)))
        path = tmp_path / "linear.lits"
        path.write_text("".join(f"x{k} == (x{k + 1} & r)\n" for k in range(n)),
                        encoding="utf-8")
        code, out, _ = run(capsys, "--machine", "defcheck", str(path))
        assert code == 0
        assert json.loads(out)["details"]["seed"]["def"]["x0"].count("&") == n
        assert n <= len(steps) <= 4 * n


# -- the exit-code contract on generated input ---------------------------------

_bool_text = st.recursive(
    st.sampled_from(["p", "q", "r"]),
    lambda inner: st.one_of(
        inner.map(lambda b: "~" + b),
        st.tuples(inner, inner).map(lambda t: f"({t[0]} & {t[1]})")),
    max_leaves=4)

_form_text = st.recursive(
    st.one_of(
        st.sampled_from(["p", "q"]),
        st.tuples(_bool_text, st.sampled_from(["==", "!=", ":="]), _bool_text).map(" ".join),
        st.tuples(st.sampled_from(["kd i", "kx j"]), _bool_text).map(" ".join)),
    lambda inner: st.one_of(
        inner.map(lambda f: "~" + f),
        inner.map(lambda f: f"box i {f}"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]}] {t[1]}"),
        st.tuples(inner, st.sampled_from(["&", "|", "->", "<->"]), inner)
        .map(lambda t: f"({' '.join(t)})")),
    max_leaves=4)

_garbage = st.text(alphabet="pq~&|()[]=!<->: boxikd", max_size=16)
_formula = st.one_of(_form_text, _form_text, _garbage)  # mostly well-formed

_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["", "p", "x"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["p", "id", "formula"]), inner,
                                            max_size=2)),
    max_leaves=5)


@st.composite
def _model_json(draw):
    """fig1 with one field replaced or removed, or any small JSON value."""
    if draw(st.booleans()):
        return draw(_json)
    data = json.loads(dumps(load(fixture_path("fig1"))))
    target = data
    for key in draw(st.sampled_from([
            (), ("worlds",), ("worlds", 0), ("worlds", 0, "valuation"),
            ("worlds", 0, "def"), ("relations",), ("relations", "i")])):
        target = target[key]
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    key = draw(st.sampled_from(keys))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(st.one_of(_json, _bool_text))
    return data


_rule = st.sampled_from(["axiom", "taut", "mp", "nec", "rewrite"])
_refs = st.lists(st.integers(-1, 3), max_size=2)
_proof_json = st.one_of(
    _json,
    st.lists(st.fixed_dictionaries({}, optional={
        "formula": st.one_of(_form_text, _json), "rule": st.one_of(_rule, _json),
        "refs": st.one_of(_refs, _json), "agent": st.one_of(st.just("i"), _json)}),
        max_size=3),
    st.lists(st.fixed_dictionaries({"formula": _form_text, "rule": _rule},
                                   optional={"refs": _refs, "agent": st.just("i")}),
             min_size=1, max_size=3))

_literal_line = st.one_of(
    st.tuples(_bool_text, st.sampled_from(["==", "!="]), _bool_text).map(" ".join),
    _bool_text, _formula, st.just("# note"))
_literals = st.lists(_literal_line, max_size=5).map("\n".join)


@st.composite
def _invocation(draw):
    """argv for one subcommand, and the files it reads as {name: text}."""
    files = {}

    def formula_args():
        text = draw(_formula)
        if text.startswith("-"):
            files["formula.txt"] = text
            return ["--file", "formula.txt"]
        return [text]

    def model_arg():
        if draw(st.booleans()):
            return draw(st.sampled_from(["fig1", "fig2.json", "fig3", "fig4"]))
        files["model.json"] = json.dumps(draw(_model_json()))
        return "model.json"

    command = draw(st.sampled_from([
        "parse", "validate", "check", "reduce", "sat", "valid", "prove-verify",
        "defcheck", "fixtures"]))
    if command in ("parse", "reduce", "sat", "valid"):
        args = formula_args()
    elif command == "validate":
        args = [model_arg()]
    elif command == "check":
        args = [model_arg()] + formula_args()
        world = draw(st.sampled_from([None, "left", "middle", "nowhere"]))
        if world:
            args += ["--world", world]
        if draw(st.booleans()):
            args.append("--verbose")
    elif command == "prove-verify":
        files["proof.json"] = json.dumps(draw(_proof_json))
        args = ["proof.json"]
    elif command == "defcheck":
        files["input.lits"] = draw(_literals)
        args = ["input.lits", "--witness-out", "witness.json"]
    else:
        args = []
    machine = ["--machine"] if draw(st.booleans()) else []
    return machine + [command] + args, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


class TestExitCodeContract:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(invocation=_invocation())
    def test_generated_input_keeps_the_contract(self, workdir, invocation):
        argv, files = invocation
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        argv = [str(workdir / a) if a in files or a == "witness.json" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if argv[0] == "--machine":
            payload = json.loads(out.getvalue())
            assert set(payload) == {"subcommand", "verdict", "details"}

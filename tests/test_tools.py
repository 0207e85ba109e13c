"""The scripts under tools/ still run against the package."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_growth_reports_the_circular_proof_files():
    growth = _tool("growth")
    header, *rows = growth.circular_rows(repeat=1)
    assert header == ("circular n", "lines", "bytes", "terms", "print ms", "read ms",
                      "verify ms", "verdict")
    assert [row[0] for row in rows] == list(growth.CIRCULAR)
    for n, lines, size, terms, *times, verdict in rows:
        assert lines == 6 * n - 1 and 0 < terms < size
        assert all(float(ms) >= 0 for ms in times)
        # the tautology budget rejects chains past 18 steps
        assert (verdict == "ok") == (n <= 18)
    # the circular n = 24 file names its shared terms
    assert rows[-1][2] <= 21_000


def test_growth_reports_the_unification_verdicts():
    growth = _tool("growth")
    header, *rows = growth.unify_rows(repeat=1)
    assert header == ("unify", "n", "ms", "occurs", "forest", "hops", "verdict")
    assert [row[:2] for row in rows] == [
        (family, n) for family, (sizes, _) in growth.UNIFY.items() for n in sizes]
    circular = {"circular chain", "circular unions", "union path"}
    for family, n, *_, verdict in rows:
        assert verdict == ("circular" if family in circular else "sat"), (family, n)

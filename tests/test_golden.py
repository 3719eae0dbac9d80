"""CLI outputs and exit codes must stay those of the golden files in
tests/golden/, recorded with tests/golden/make_golden.py. A difference
on some platform is a finding to report, not a file to re-record."""
import csv
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


# What a cell may hold: ASCII digits, "/", ".", "-", "e", "+", inf or nan,
# a receiver label, or nothing. No such cell needs CSV quoting, so the
# writer joins cells with commas as they are.
UNQUOTED_CELL = re.compile(r"[0-9/.e+-]*|-?inf|nan|overall|ue\d+|rn\d*")


@pytest.mark.parametrize("name", sorted(make_golden.CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / "out.json"
    case = make_golden.CASES[name]
    assert make_golden.run_case(case.argv, out) == case.exit_code
    assert out.read_bytes() == make_golden.golden_path(name).read_bytes()


def test_one_parser_serves_exact_cases_after_usage_error_and_help(tmp_path, capsys):
    """The parser built once per process, after a usage error and two
    --help exits, gives the golden bytes and exit codes on the exact
    (bounds, optimal, tradeoff) cases, run in reverse order."""
    from ndtcache.cli import EXIT_USAGE, build_parser, main

    assert main(["bounds", "--mu", "abc"]) == EXIT_USAGE
    for argv in (["--help"], ["tradeoff", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    exact = [name for name, case in make_golden.CASES.items()
             if case.argv[0] in ("bounds", "optimal", "tradeoff")]
    for name in sorted(exact, reverse=True):
        out = tmp_path / name
        case = make_golden.CASES[name]
        assert make_golden.run_case(case.argv, out) == case.exit_code, name
        assert out.read_bytes() == make_golden.golden_path(name).read_bytes(), name
    assert build_parser() is build_parser()


@pytest.mark.parametrize("name", sorted(make_golden.CASES))
def test_every_golden_cell_needs_no_quoting(name):
    """Every data cell of every golden case, CSV or JSON (a JSON number
    as its str), is in the unquoted alphabet, and each CSV line is its
    cells joined by commas."""
    text = make_golden.golden_path(name).read_text()
    if name.endswith(".csv"):
        lines = list(csv.reader(io.StringIO(text)))
        assert text == "".join(",".join(cells) + "\n" for cells in lines)
        cells = [cell for row in lines[1:] for cell in row]
    else:
        cells = [value if type(value) is str else str(value)
                 for row in json.loads(text)["data"] for value in row.values()]
    assert cells
    assert [cell for cell in cells if not UNQUOTED_CELL.fullmatch(cell)] == []

"""CLI outputs and exit codes must stay those of the golden files in
tests/golden/, recorded with tests/golden/make_golden.py. A difference
on some platform is a finding to report, not a file to re-record."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "make_golden", Path(__file__).parent / "golden" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


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

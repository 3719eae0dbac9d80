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

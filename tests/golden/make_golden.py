"""Record the golden CLI outputs that tests/test_golden.py compares against.

  PYTHONPATH=src python tests/golden/make_golden.py

Each case runs one CLI command in-process, writes its artifact to
tests/golden/<name>.json (to tests/golden/<name> for a name ending in
".csv") and must end with the case's exit code (a failed verification
still writes its partial report). Re-record only in a change
that alters the output bytes on purpose, and say why in CHANGES.md.
"""
from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

GOLDEN = Path(__file__).resolve().parent
SEED = "2017"


class Case(NamedTuple):
    argv: list[str]
    exit_code: int = 0


def _cases() -> dict[str, Case]:
    cases = {
        "verify-m1k3_tol1e-9": ["verify-m1k3", "--trials", "1000", "--seed", SEED],
        "verify-m1k3_tol3e-2": ["verify-m1k3", "--trials", "1000", "--tol", "3e-2",
                                "--seed", SEED],
        "rates": ["rates", "--trials", "1000", "--snr-db", "40,50,60", "--seed", SEED],
    }
    for m in range(1, 4):
        for k in range(1, 5):
            for mu in ("0", "1"):
                cases[f"verify-corner_m{m}_k{k}_mu{mu}"] = [
                    "verify-corner", "--m", str(m), "--k", str(k), "--mu", mu,
                    "--trials", "200", "--seed", SEED,
                ]
    # MISO zero-forcing with a loose tolerance, so redraws occur.
    cases["verify-corner_m3_k4_mu1_tol0.1"] = [
        "verify-corner", "--m", "3", "--k", "4", "--mu", "1",
        "--trials", "200", "--tol", "0.1", "--seed", SEED,
    ]
    # Exact curves: the lower-bound and optimal envelopes and the
    # memory-sharing hull, pinned byte for byte.
    for m, k in ((1, 3), (2, 2), (10, 20)):
        cases[f"tradeoff_m{m}_k{k}_grid60"] = [
            "tradeoff", "--m", str(m), "--k", str(k), "--grid", "60", "--format", "json",
        ]
    for m, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        for command in ("bounds", "optimal"):
            cases[f"{command}_m{m}_k{k}"] = [
                command, "--m", str(m), "--k", str(k), "--format", "json",
            ]
    # The default CSV path and the --mu point path, pinned in both formats.
    for m, k in ((1, 3), (2, 2)):
        for command in ("bounds", "optimal"):
            cases[f"{command}_m{m}_k{k}.csv"] = [command, "--m", str(m), "--k", str(k)]
    cases["tradeoff_m1_k3.csv"] = ["tradeoff", "--m", "1", "--k", "3"]
    cases["tradeoff_m2_k2_grid12.csv"] = ["tradeoff", "--m", "2", "--k", "2", "--grid", "12"]
    # Grid points on and between breakpoints: mu = 4/5 with grid 5, mu =
    # 4/9 with grid 9, a fine odd grid, and a wide table with the default.
    cases["tradeoff_m1_k3_grid5.csv"] = ["tradeoff", "--m", "1", "--k", "3", "--grid", "5"]
    cases["tradeoff_m2_k2_grid9.csv"] = ["tradeoff", "--m", "2", "--k", "2", "--grid", "9"]
    cases["tradeoff_m3_k7_grid97"] = ["tradeoff", "--m", "3", "--k", "7", "--grid", "97",
                                      "--format", "json"]
    cases["tradeoff_m12_k5.csv"] = ["tradeoff", "--m", "12", "--k", "5"]
    # Curves whose segments carry big integers (the bound's common
    # denominator 2*lcm(1..s_max) has 90 bits at (60, 80) and 144 at
    # (100, 200)), on the default and an odd grid.
    cases["tradeoff_m60_k80.csv"] = ["tradeoff", "--m", "60", "--k", "80"]
    cases["tradeoff_m100_k200_grid97"] = ["tradeoff", "--m", "100", "--k", "200",
                                          "--grid", "97", "--format", "json"]
    cases["bounds_m60_k80.csv"] = ["bounds", "--m", "60", "--k", "80"]
    for command, m, k, mu in (("bounds", 1, 3, "4/5"), ("bounds", 3, 4, "1/3"),
                              ("optimal", 1, 3, "4/5"), ("optimal", 2, 2, "1/3"),
                              ("tradeoff", 1, 3, "4/5"), ("tradeoff", 3, 4, "1/3")):
        argv = [command, "--m", str(m), "--k", str(k), "--mu", mu]
        name = f"{command}_m{m}_k{k}_mu{mu.replace('/', '-')}"
        cases[f"{name}.csv"] = argv
        cases[name] = argv + ["--format", "json"]
    cases["verify-m1k3_trials5.csv"] = ["verify-m1k3", "--trials", "5", "--seed", SEED,
                                        "--format", "csv"]
    for mu in ("0", "1"):
        cases[f"verify-corner_m2_k3_mu{mu}_trials5.csv"] = [
            "verify-corner", "--m", "2", "--k", "3", "--mu", mu, "--trials", "5",
            "--seed", SEED, "--format", "csv",
        ]
    cases["rates_trials20.csv"] = ["rates", "--trials", "20", "--seed", SEED, "--format", "csv"]
    # Seeds of several 32-bit words in the generator key: 2**64 + 1 is three
    # words (70 trials leave a 6-key tail block), 2**32 is two (redraws
    # across a block edge), and 0 is one.
    cases["verify-corner_m2_k3_mu1_seed2e64+1"] = [
        "verify-corner", "--m", "2", "--k", "3", "--mu", "1", "--trials", "70",
        "--seed", "18446744073709551617",
    ]
    cases["verify-m1k3_tol3e-2_seed2e32"] = ["verify-m1k3", "--trials", "65", "--tol", "3e-2",
                                             "--seed", "4294967296"]
    cases["verify-corner_m1_k4_mu0_seed0"] = [
        "verify-corner", "--m", "1", "--k", "4", "--mu", "0", "--trials", "9", "--seed", "0",
    ]
    cases = {name: Case(argv) for name, argv in cases.items()}
    # Failed verifications (exit 2): MISO runs out of redraws at trial 0,
    # and verify-m1k3 at trial 48, each writing its partial report.
    cases["verify-corner_m1_k2_mu1_exhausted"] = Case([
        "verify-corner", "--m", "1", "--k", "2", "--mu", "1", "--tol", "0.999",
        "--trials", "3", "--format", "json",
    ], 2)
    cases["verify-m1k3_tol8e-2_exhausted"] = Case(
        ["verify-m1k3", "--trials", "60", "--tol", "8e-2", "--seed", "0"], 2)
    return cases


CASES = _cases()


def golden_path(name: str) -> Path:
    return GOLDEN / (name if name.endswith(".csv") else f"{name}.json")


def run_case(argv: list[str], path: Path) -> int:
    """Run one CLI command with its artifact written to ``path``."""
    from ndtcache.cli import main

    return main(argv + ["--output", str(path)])


def main() -> int:
    for name, case in CASES.items():
        code = run_case(case.argv, golden_path(name))
        if code != case.exit_code:
            print(f"{name}: exit code {code}, expected {case.exit_code}", file=sys.stderr)
            return 1
        print(f"recorded {golden_path(name).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

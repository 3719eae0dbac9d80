"""Record the golden CLI outputs that tests/test_golden.py compares against.

  PYTHONPATH=src python tests/golden/make_golden.py

Each case runs one CLI command in-process and writes its artifact to
tests/golden/<name>.<format>. Re-record only in a change that alters the
output bytes on purpose, and say why in CHANGES.md.
"""
from __future__ import annotations

import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
SEED = "2017"


def _cases() -> dict[str, list[str]]:
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
    return cases


CASES = _cases()


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def run_case(argv: list[str], path: Path) -> int:
    """Run one CLI command with its artifact written to ``path``."""
    from ndtcache.cli import main

    return main(argv + ["--output", str(path)])


def main() -> int:
    for name, argv in CASES.items():
        code = run_case(argv, golden_path(name))
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return 1
        print(f"recorded {golden_path(name).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: CLI argument lists made from a seed, and the
checks that every command's output is correct.

Workloads (see README.md for why each exists):
  m1k3         verify-m1k3 then rates, 1000 trials each, default tol
  m1k3_redraw  verify-m1k3 at --tol 3e-2, where about 18% of draws are redrawn
  corner       verify-corner at mu = 0 and mu = 1 for M in 1..3, K in 1..4
  tradeoff     tradeoff tables for (M, M) and (M, 2M), M in 1..10, plus
               bounds and optimal curves for the five characterized pairs
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("m1k3", "m1k3_redraw", "corner", "tradeoff")

# Work per command. "tiny" is for the benchmark's self-test only.
SCALES = {
    "full": {"trials": 1000, "corner_trials": 200, "grid": 60, "max_m": 10},
    "tiny": {"trials": 20, "corner_trials": 10, "grid": 6, "max_m": 3},
}

# Acceptance-gate thresholds, pinned here so that a change to the
# program's own constants cannot loosen the benchmark's checks.
ZF_RESIDUAL_MAX = 1e-10
ALIGNMENT_RESIDUAL_MAX = 1e-8
DECODE_ERROR_MAX = 1e-6
SLOPE_REL_TOL = 0.10
CHARACTERIZED = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))


def import_package():
    """Import ndtcache from this checkout's src/, never from elsewhere."""
    if not (SRC / "ndtcache" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ndtcache package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ndtcache
    import ndtcache.cli

    if Path(ndtcache.__file__).resolve().parent != SRC / "ndtcache":
        raise ImportError(f"ndtcache was imported from {ndtcache.__file__}, not {SRC}")
    return ndtcache


def commands(workload: str, seed: int, scale: str = "full") -> list[list[str]]:
    """The workload's CLI argument lists, in run order, made from ``seed``."""
    size = SCALES[scale]
    rng = random.Random(seed)

    def cli_seed() -> str:
        return str(rng.randrange(2**31))

    trials = str(size["trials"])
    if workload == "m1k3":
        return [
            ["verify-m1k3", "--trials", trials, "--seed", cli_seed()],
            ["rates", "--trials", trials, "--snr-db", "40,50,60", "--seed", cli_seed()],
        ]
    if workload == "m1k3_redraw":
        return [["verify-m1k3", "--trials", trials, "--tol", "3e-2", "--seed", cli_seed()]]
    if workload == "corner":
        return [
            ["verify-corner", "--m", str(m), "--k", str(k), "--mu", mu,
             "--trials", str(size["corner_trials"]), "--seed", cli_seed()]
            for m in range(1, 4) for k in range(1, 5) for mu in ("0", "1")
        ]
    if workload == "tradeoff":
        # Exact arithmetic only: the tables do not depend on the seed.
        tables = [
            ["tradeoff", "--m", str(m), "--k", str(k), "--grid", str(size["grid"])]
            for m in range(1, size["max_m"] + 1) for k in (m, 2 * m)
        ]
        curves = [
            [command, "--m", str(m), "--k", str(k)]
            for m, k in CHARACTERIZED for command in ("bounds", "optimal")
        ]
        return tables + curves
    raise ValueError(f"unknown workload {workload!r}")


def check(argv: list[str], code: int, out: str) -> list[str]:
    """Problems found in one command's exit code and stdout; empty if correct."""
    if code != 0:
        return [f"exit code {code}"]
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    try:
        if command == "verify-m1k3":
            return _check_report(json.loads(out), opts, Fraction(8, 5), m1k3=True)
        if command == "verify-corner":
            m, k = int(opts["--m"]), int(opts["--k"])
            ndt = Fraction(k + m) if opts["--mu"] == "0" else max(Fraction(k, m + 1), Fraction(1))
            return _check_report(json.loads(out), opts, ndt, m1k3=False)
        if command == "rates":
            return _check_rates(json.loads(out), opts)
        rows = list(csv.DictReader(io.StringIO(out)))
        return _check_exact(command, int(opts["--m"]), int(opts["--k"]), rows, opts)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_report(payload: dict, opts: dict, ndt: Fraction, m1k3: bool) -> list[str]:
    overall, *receivers = payload["data"]
    problems = []
    if overall["failures"] != 0:
        problems.append(f"failures {overall['failures']}")
    if overall["trials"] != int(opts["--trials"]):
        problems.append(f"trials {overall['trials']}")
    if not overall["decode_max_error"] <= DECODE_ERROR_MAX:
        problems.append(f"decode error {overall['decode_max_error']}")
    if Fraction(overall["ndt"]) != ndt:
        problems.append(f"ndt {overall['ndt']} != {ndt}")
    for row in receivers:
        if not row["zf_residual"] <= ZF_RESIDUAL_MAX:
            problems.append(f"{row['receiver']} ZF residual {row['zf_residual']}")
        if not row["alignment_residual"] <= ALIGNMENT_RESIDUAL_MAX:
            problems.append(f"{row['receiver']} alignment residual {row['alignment_residual']}")
        if m1k3:
            ranks = (row["desired_rank"], row["interference_rank"], row["total_rank"])
            want = (4, 0, 4) if row["receiver"].startswith("rn") else (5, 3, 8)
            if ranks != want:
                problems.append(f"{row['receiver']} ranks {ranks} != {want}")
    return problems


def _check_rates(payload: dict, opts: dict) -> list[str]:
    rows = payload["data"]
    snrs = [float(x) for x in opts["--snr-db"].split(",")]
    problems = []
    if len(rows) != 4 * len(snrs):
        problems.append(f"{len(rows)} rows")
    for row in rows:
        if not all(math.isfinite(row[key]) for key in ("snr_db", "rate", "fitted_slope")):
            problems.append(f"{row['receiver']} non-finite value")
            continue
        dof = Fraction(1, 8) if row["receiver"] == "rn" else Fraction(5, 8)
        if abs(row["fitted_slope"] - dof) > SLOPE_REL_TOL * dof:
            problems.append(f"{row['receiver']} slope {row['fitted_slope']} not near {dof}")
    return problems


def _check_exact(command: str, m: int, k: int, rows: list[dict], opts: dict) -> list[str]:
    """Exact tables and curves against the pointwise converse or closed form,
    which do not depend on how the program builds its envelopes."""
    from ndtcache import NetworkConfig, lower_bound, optimal_ndt  # found via import_package

    def cfg(mu):
        return NetworkConfig(M=m, K=k, N=m + k, mu=mu)

    problems = []
    mus = [Fraction(row["mu"]) for row in rows]
    if not mus or mus[0] != 0 or mus[-1] != 1:
        problems.append("rows do not span mu in [0, 1]")
    if command == "tradeoff" and len(rows) != int(opts["--grid"]) + 1:
        problems.append(f"{len(rows)} rows for grid {opts['--grid']}")
    for mu, row in zip(mus, rows):
        if command == "tradeoff":
            lb, ach, gap = (Fraction(row[c]) for c in ("lower_bound", "achievable_envelope", "gap"))
            if lb != lower_bound(cfg(mu)):
                problems.append(f"lower_bound at mu={mu}")
            if gap != ach - lb or gap < 0:
                problems.append(f"gap at mu={mu}")
        elif command == "bounds" and Fraction(row["ndt"]) != lower_bound(cfg(mu)):
            problems.append(f"bound at mu={mu}")
        elif command == "optimal" and Fraction(row["ndt"]) != optimal_ndt(cfg(mu)):
            problems.append(f"optimal at mu={mu}")
    return problems

"""Command-line front end.

Subcommands compute bound/optimal curves and tradeoff tables (exact
rationals, emitted as "p/q" strings plus 15-significant-digit decimal
companions) or run the Monte Carlo verifications. Output is CSV or JSON,
deterministic byte-for-byte for a fixed invocation.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 uncharacterized configuration.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import (
    UncharacterizedConfigError,
    achievable_catalog,
    lower_bound,
    lower_bound_curve,
    memory_sharing_envelope,
    optimal_ndt,
    optimal_ndt_curve,
)
from .model import NetworkConfig, Rational, as_rational
from .verify import VerificationFailure, VerificationReport, finite_snr_rates, verify_corner, verify_m1k3

COMMANDS = ("bounds", "optimal", "tradeoff", "verify-m1k3", "verify-corner", "rates")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_UNCHARACTERIZED = 3


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    m: int = 1
    k: int = 1
    n: int | None = None
    mu: Rational | None = None
    grid: int = 60
    seed: int = 0
    trials: int = 100
    tol: float = 1e-9
    output_format: str = "csv"
    output_path: Path | None = None
    snr_db: tuple[float, ...] = (40.0, 50.0, 60.0)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.m < 1 or self.k < 1:
            raise UsageError("M and K must be positive")
        if self.grid < 1:
            raise UsageError("--grid must be positive")
        if self.n is not None and self.n < self.m + self.k:
            raise UsageError(f"need N >= M + K, got N={self.n}, M+K={self.m + self.k}")
        if self.trials < 1:
            raise UsageError("--trials must be positive")
        if not 0 < self.tol < 1:
            raise UsageError(f"--tol must lie in (0, 1), got {self.tol}")
        if not all(math.isfinite(x) for x in self.snr_db):
            raise UsageError(f"--snr-db points must be finite, got {list(self.snr_db)}")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"unknown output format {self.output_format!r}")

    def network(self, mu: Rational) -> NetworkConfig:
        n = self.n if self.n is not None else self.m + self.k
        return NetworkConfig(M=self.m, K=self.k, N=n, mu=mu)


def _dec(x: Rational | float) -> str:
    return format(float(x), ".15g")


def _rational_cell(row: dict, name: str, value: Rational) -> None:
    row[name] = str(Fraction(value))
    row[f"{name}_decimal"] = _dec(value)


def _curve_rows(curve) -> list[dict]:
    rows = []
    for mu, ndt in curve.breakpoints:
        row: dict = {}
        _rational_cell(row, "mu", mu)
        _rational_cell(row, "ndt", ndt)
        rows.append(row)
    return rows


def _point_columns(name: str) -> list[str]:
    return ["mu", "mu_decimal", name, f"{name}_decimal"]


CURVE_COLUMNS = ["mu", "mu_decimal", "ndt", "ndt_decimal"]
TRADEOFF_COLUMNS = [
    "mu", "mu_decimal",
    "lower_bound", "lower_bound_decimal",
    "achievable_envelope", "achievable_envelope_decimal",
    "gap", "gap_decimal",
]
VERIFY_COLUMNS = [
    "receiver", "desired_rank", "interference_rank", "total_rank",
    "zf_residual", "alignment_residual",
    "ndt", "ndt_decimal", "per_ue_dof", "per_ue_dof_decimal",
    "rn_dof", "rn_dof_decimal", "sum_dof", "sum_dof_decimal",
    "decode_max_error", "trials", "failures", "redraws",
]
RATES_COLUMNS = ["receiver", "snr_db", "rate", "fitted_slope"]


def _report_rows(report: VerificationReport) -> list[dict]:
    overall: dict = {"receiver": "overall"}
    for col in ("desired_rank", "interference_rank", "total_rank",
                "zf_residual", "alignment_residual"):
        overall[col] = ""
    _rational_cell(overall, "ndt", report.ndt)
    _rational_cell(overall, "per_ue_dof", report.per_ue_dof)
    _rational_cell(overall, "rn_dof", report.rn_dof)
    _rational_cell(overall, "sum_dof", report.sum_dof)
    overall["decode_max_error"] = report.decode_max_error
    overall["trials"] = report.trials
    overall["failures"] = report.failures
    overall["redraws"] = report.redraws
    rows = [overall]
    for sub in report.ue_reports + report.rn_reports:
        row = {
            "receiver": sub.receiver,
            "desired_rank": sub.desired_rank,
            "interference_rank": sub.interference_rank,
            "total_rank": sub.total_rank,
            "zf_residual": sub.zf_residual,
            "alignment_residual": sub.alignment_residual,
        }
        for col in VERIFY_COLUMNS[6:]:
            row[col] = ""
        rows.append(row)
    return rows


def emit(payload: dict, output_format: str, path: Path | None, columns: list[str]) -> int:
    """Serialize the payload and write it; returns the bytes written.

    JSON carries {meta, data} verbatim; CSV carries the data rows under
    the given header (header-only when there are no rows). Both end with
    a newline and are byte-deterministic for a fixed payload.
    """
    if output_format == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in payload["data"]:
            writer.writerow({c: _csv_cell(row.get(c, "")) for c in columns})
        text = buf.getvalue()
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_bytes(data)
    return len(data)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    return str(value)


def _meta(cfg: RunConfig) -> dict:
    return {
        "command": cfg.command,
        "M": cfg.m,
        "K": cfg.k,
        "seed": cfg.seed,
        "tol": cfg.tol,
        "version": __version__,
    }


def _grid_values(grid: int) -> list[Fraction]:
    return [Fraction(i, grid) for i in range(grid + 1)]


def run(cfg: RunConfig) -> int:
    """Execute one command and emit its artifact; returns the exit code."""
    payload = {"meta": _meta(cfg), "data": []}
    columns = CURVE_COLUMNS
    try:
        if cfg.command == "bounds":
            if cfg.mu is not None:
                row: dict = {}
                _rational_cell(row, "mu", cfg.mu)
                _rational_cell(row, "lower_bound", lower_bound(cfg.network(cfg.mu)))
                payload["data"] = [row]
                columns = _point_columns("lower_bound")
            else:
                payload["data"] = _curve_rows(lower_bound_curve(cfg.m, cfg.k))
        elif cfg.command == "optimal":
            if cfg.mu is not None:
                row = {}
                _rational_cell(row, "mu", cfg.mu)
                _rational_cell(row, "optimal_ndt", optimal_ndt(cfg.network(cfg.mu)))
                payload["data"] = [row]
                columns = _point_columns("optimal_ndt")
            else:
                payload["data"] = _curve_rows(optimal_ndt_curve(cfg.m, cfg.k))
        elif cfg.command == "tradeoff":
            lb_curve = lower_bound_curve(cfg.m, cfg.k)
            envelope = memory_sharing_envelope(achievable_catalog(cfg.m, cfg.k))
            mus = [cfg.mu] if cfg.mu is not None else _grid_values(cfg.grid)
            rows = []
            for mu in mus:
                lb = lb_curve.evaluate(mu)
                ach = envelope.evaluate(mu)
                row = {}
                _rational_cell(row, "mu", mu)
                _rational_cell(row, "lower_bound", lb)
                _rational_cell(row, "achievable_envelope", ach)
                _rational_cell(row, "gap", ach - lb)
                rows.append(row)
            payload["data"] = rows
            columns = TRADEOFF_COLUMNS
        elif cfg.command == "verify-m1k3":
            report = verify_m1k3(cfg.seed, cfg.trials, cfg.tol)
            payload["data"] = _report_rows(report)
            columns = VERIFY_COLUMNS
        elif cfg.command == "verify-corner":
            if cfg.mu is None or cfg.mu not in (0, 1):
                raise UsageError("verify-corner requires --mu 0 or --mu 1")
            report = verify_corner(cfg.seed, cfg.trials, cfg.network(cfg.mu), cfg.tol)
            payload["data"] = _report_rows(report)
            columns = VERIFY_COLUMNS
        elif cfg.command == "rates":
            estimates = finite_snr_rates(cfg.seed, list(cfg.snr_db), cfg.trials)
            payload["data"] = [
                {
                    "receiver": e.receiver,
                    "snr_db": e.snr_db,
                    "rate": e.rate,
                    "fitted_slope": e.fitted_slope,
                }
                for e in estimates
            ]
            payload["meta"]["M"], payload["meta"]["K"] = 1, 3
            columns = RATES_COLUMNS
    except UncharacterizedConfigError as exc:
        _error_line("uncharacterized-configuration", str(exc))
        return EXIT_UNCHARACTERIZED
    except VerificationFailure as exc:
        if exc.report is not None:
            payload["data"] = _report_rows(exc.report)
            emit(payload, cfg.output_format, cfg.output_path, VERIFY_COLUMNS)
        _error_line("verification-failure", str(exc))
        return EXIT_VERIFICATION

    emit(payload, cfg.output_format, cfg.output_path, columns)
    return EXIT_OK


def _error_line(code: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": code, "detail": detail}) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ndtcache", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, mk: bool = True, mu: bool = True,
            monte_carlo: bool = False):
        # An option left out is left out of the namespace too, so RunConfig
        # supplies its default; only the output format varies per command.
        p = sub.add_parser(name, help=help_, argument_default=argparse.SUPPRESS)
        if mk:
            p.add_argument("--m", type=int, help="number of relays")
            p.add_argument("--k", type=int, help="number of users")
            p.add_argument("--n", type=int, help="library size (default M+K)")
        if mu:
            p.add_argument("--mu", type=str, help="fractional cache size, e.g. '4/5' or '0.8'")
        if monte_carlo:
            p.add_argument("--seed", type=int)
            p.add_argument("--trials", type=int)
            p.add_argument("--tol", type=float)
        p.add_argument("--format", dest="output_format", choices=("csv", "json"),
                       default="json" if monte_carlo else "csv")
        p.add_argument("--output", dest="output_path", type=Path,
                       help="output file (default stdout)")
        return p

    add("bounds", "lower-bound curve breakpoints, or the bound at --mu")
    add("optimal", "closed-form optimal curve for the characterized (M, K)")
    add("tradeoff", "table of lower bound vs achievable envelope on a mu grid").add_argument(
        "--grid", type=int, help=f"number of grid intervals (default {RunConfig.grid})")
    p = add("verify-m1k3", "Monte Carlo verification of the M=1, K=3 scheme",
            mk=False, mu=False, monte_carlo=True)
    p.set_defaults(m=1, k=3)
    add("verify-corner", "Monte Carlo verification of the mu=0 / mu=1 schemes",
        monte_carlo=True)
    p = add("rates", "finite-SNR rate and DoF-slope estimates for the M=1, K=3 scheme",
            mk=False, mu=False, monte_carlo=True)
    p.set_defaults(m=1, k=3)
    p.add_argument("--snr-db", type=str, help="comma-separated SNR points in dB")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the options the subcommand was given."""
    opts = dict(vars(args))
    if "mu" in opts:
        opts["mu"] = as_rational(opts["mu"])
        if not 0 <= opts["mu"] <= 1:
            raise UsageError(f"--mu must lie in [0, 1], got {opts['mu']}")
        if "grid" in opts:
            raise UsageError("--mu and --grid are mutually exclusive")
    if "snr_db" in opts:
        opts["snr_db"] = tuple(float(x) for x in opts["snr_db"].split(","))
    return RunConfig(**opts)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return run(cfg)
    except UsageError as exc:
        _error_line("usage", str(exc))
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        _error_line("usage", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands compute bound/optimal curves and tradeoff tables (exact
rationals, emitted as "p/q" strings plus 15-significant-digit decimal
companions) or run the Monte Carlo verifications. Output is CSV or JSON,
deterministic byte-for-byte for a fixed invocation. Every exact cell
comes from one formatter over an integer pair (n, d), and tradeoff rows
from one integer walk of each curve.

Exit codes: 0 success, 1 usage error or out of memory, 2 verification
failure, 3 uncharacterized configuration.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

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
from .model import DEGENERACY_TOL, NetworkConfig, Rational, as_rational
from .verify import VerificationFailure, VerificationReport, finite_snr_rates, verify_corner, verify_m1k3

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_UNCHARACTERIZED = 3

# The largest --grid: tradeoff holds every row in memory, so its time and
# memory grow with the grid; this keeps a run to seconds and hundreds of MB.
MAX_GRID = 100_000


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    m: int = 1
    k: int = 1
    mu: Rational | None = None
    grid: int = 60
    seed: int = 0
    trials: int = 100
    tol: float = DEGENERACY_TOL
    output_format: str | None = None  # None: the command's format in COMMANDS
    output_path: Path | None = None
    snr_db: tuple[float, ...] = (40.0, 50.0, 60.0)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.output_format is None:
            object.__setattr__(self, "output_format", COMMANDS[self.command].output_format)
        if self.m < 1 or self.k < 1:
            raise UsageError("M and K must be positive")
        if self.grid < 1:
            raise UsageError("--grid must be positive")
        if self.grid > MAX_GRID:
            raise UsageError(f"--grid must be at most {MAX_GRID}, got {self.grid}")
        if self.trials < 1:
            raise UsageError("--trials must be positive")
        if self.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {self.seed}")
        if not 0 < self.tol < 1:
            raise UsageError(f"--tol must lie in (0, 1), got {self.tol}")
        if not all(math.isfinite(x) for x in self.snr_db):
            raise UsageError(f"--snr-db points must be finite, got {list(self.snr_db)}")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"unknown output format {self.output_format!r}")

    def network(self, mu: Rational) -> NetworkConfig:
        # The worst-case NDT needs only N >= M + K files, so N = M + K.
        return NetworkConfig(M=self.m, K=self.k, N=self.m + self.k, mu=mu)


def _cells(**values: tuple[int, int]) -> dict:
    """Each exact value n/d (d > 0), reduced by one gcd, as str of its
    Fraction plus its 15-significant-digit decimal: int true division is
    correctly rounded, so n / d is float(Fraction(n, d))."""
    row = {}
    for name, (n, d) in values.items():
        g = math.gcd(n, d)
        n, d = n // g, d // g
        row[name] = f"{n}/{d}" if d != 1 else str(n)
        row[f"{name}_decimal"] = f"{n / d:.15g}"
    return row


VERIFY_COLUMNS = [
    "receiver", "desired_rank", "interference_rank", "total_rank",
    "zf_residual", "alignment_residual",
    "ndt", "ndt_decimal", "per_ue_dof", "per_ue_dof_decimal",
    "rn_dof", "rn_dof_decimal", "sum_dof", "sum_dof_decimal",
    "decode_max_error", "trials", "failures", "redraws",
]
RATES_COLUMNS = ["receiver", "snr_db", "rate", "fitted_slope"]


def _result_rows(report: VerificationReport | list) -> tuple[list[dict], list[str]]:
    """Rows and CSV columns of a Monte Carlo result, whole or partial: a
    report, or finite_snr_rates' list of RateEstimate."""
    if isinstance(report, list):
        return [asdict(e) for e in report], RATES_COLUMNS
    overall = {
        "receiver": "overall", **dict.fromkeys(VERIFY_COLUMNS[1:6], ""),
        **_cells(**{name: getattr(report, name).as_integer_ratio()
                    for name in ("ndt", "per_ue_dof", "rn_dof", "sum_dof")}),
        "decode_max_error": report.decode_max_error, "trials": report.trials,
        "failures": report.failures, "redraws": report.redraws,
    }
    return [overall] + [
        {**{col: getattr(sub, col) for col in VERIFY_COLUMNS[:6]},
         **dict.fromkeys(VERIFY_COLUMNS[6:], "")}
        for sub in report.ue_reports + report.rn_reports
    ], VERIFY_COLUMNS


def emit(payload: dict, output_format: str, path: Path | None, columns: list[str]) -> int:
    """Serialize the payload and write it; returns the bytes written.

    JSON carries {meta, data} verbatim; CSV carries the data rows under
    the given header (header-only when there are no rows); every row
    holds every column, and csv writes a float as its repr. Both end with
    a newline and are byte-deterministic for a fixed payload.
    """
    if output_format == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        from operator import itemgetter
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(map(itemgetter(*columns), payload["data"]))
        text = buf.getvalue()
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_bytes(data)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return len(data)


def _exact(point, curve, column: str):
    """Rows of a curve command: the curve's breakpoints, or its value at --mu."""
    def rows(cfg: RunConfig):
        if cfg.mu is None:
            data = [_cells(mu=mu.as_integer_ratio(), ndt=ndt.as_integer_ratio())
                    for mu, ndt in curve(cfg.m, cfg.k).breakpoints]
        else:
            value = point(cfg.network(cfg.mu))
            data = [_cells(mu=cfg.mu.as_integer_ratio(), **{column: value.as_integer_ratio()})]
        return data, list(data[0])
    return rows


def _tradeoff(cfg: RunConfig):
    """Rows of the bound and the envelope at --mu or on the grid, from one
    integer walk of each curve; no Fraction is built per row."""
    envelope = memory_sharing_envelope(achievable_catalog(cfg.m, cfg.k))
    mus = [cfg.mu.as_integer_ratio()] if cfg.mu is not None else [
        (i, cfg.grid) for i in range(cfg.grid + 1)]
    data = [
        _cells(mu=mu, lower_bound=(ln, ld), achievable_envelope=(an, ad),
               gap=(an * ld - ln * ad, ad * ld))
        for mu, (ln, ld), (an, ad) in zip(mus, lower_bound_curve(cfg.m, cfg.k)._walk(mus),
                                          envelope._walk(mus))
    ]
    return data, list(data[0])


def _verify_m1k3(cfg: RunConfig):
    return _result_rows(verify_m1k3(cfg.seed, cfg.trials, cfg.tol))


def _verify_corner(cfg: RunConfig):
    if cfg.mu is None or cfg.mu not in (0, 1):
        raise UsageError("verify-corner requires --mu 0 or --mu 1")
    return _result_rows(verify_corner(cfg.seed, cfg.trials, cfg.network(cfg.mu), cfg.tol))


def _rates(cfg: RunConfig):
    return _result_rows(finite_snr_rates(cfg.seed, list(cfg.snr_db), cfg.trials))


class Command(NamedTuple):
    help: str
    rows: Callable  # RunConfig -> (data rows, CSV columns)
    options: tuple[str, ...]
    output_format: str = "csv"
    network: tuple[int, int] | None = None  # the fixed (M, K) it reports in meta


_MONTE_CARLO = ("seed", "trials", "tol")
COMMANDS = {
    "bounds": Command("lower-bound curve breakpoints, or the bound at --mu",
                      _exact(lower_bound, lower_bound_curve, "lower_bound"), ("m", "k", "mu")),
    "optimal": Command("optimal curve of a characterized (M, K): the bound, certified tight",
                       _exact(optimal_ndt, optimal_ndt_curve, "optimal_ndt"), ("m", "k", "mu")),
    "tradeoff": Command("table of lower bound vs achievable envelope on a mu grid",
                        _tradeoff, ("m", "k", "mu", "grid")),
    "verify-m1k3": Command("Monte Carlo verification of the M=1, K=3 scheme",
                           _verify_m1k3, _MONTE_CARLO, "json", (1, 3)),
    "verify-corner": Command("Monte Carlo verification of the mu=0 / mu=1 schemes",
                             _verify_corner, ("m", "k", "mu", *_MONTE_CARLO), "json"),
    "rates": Command("finite-SNR rate and DoF-slope estimates for the M=1, K=3 scheme",
                     _rates, ("seed", "trials", "snr_db"), "json", (1, 3)),
}

_OPTIONS = {
    "m": dict(type=int, help="number of relays"),
    "k": dict(type=int, help="number of users"),
    "mu": dict(type=str, help="fractional cache size, e.g. '4/5' or '0.8'"),
    "grid": dict(type=int, help=f"number of grid intervals (default {RunConfig.grid})"),
    "seed": dict(type=int),
    "trials": dict(type=int),
    "tol": dict(type=float),
    "snr_db": dict(type=str, help="comma-separated SNR points in dB"),
}


def run(cfg: RunConfig) -> int:
    """Execute one command and emit its artifact; returns the exit code."""
    command = COMMANDS[cfg.command]
    m, k = command.network or (cfg.m, cfg.k)
    # only the Monte Carlo commands read a seed and a tolerance
    randomized = {"seed": cfg.seed, "tol": cfg.tol} if "seed" in command.options else {}
    meta = {"command": cfg.command, "M": m, "K": k, **randomized, "version": __version__}
    try:
        data, columns = command.rows(cfg)
    except UncharacterizedConfigError as exc:
        _error_line("uncharacterized-configuration", str(exc))
        return EXIT_UNCHARACTERIZED
    except VerificationFailure as exc:
        detail = str(exc)
        if exc.report is not None:
            data, columns = _result_rows(exc.report)
            try:
                emit({"meta": meta, "data": data}, cfg.output_format, cfg.output_path, columns)
            except UsageError as lost:
                detail += f"; report not written: {lost}"
        _error_line("verification-failure", detail)
        return EXIT_VERIFICATION
    emit({"meta": meta, "data": data}, cfg.output_format, cfg.output_path, columns)
    return EXIT_OK


def _error_line(code: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": code, "detail": detail}) + "\n")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read any token that starts like a negative number ("-1e-9",
        # "-1/2", "-inf") as a value, so it reaches the range checks;
        # argparse's own pattern takes only "-1" and "-0.5".
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on the first ``main``
    call and reused: argparse keeps no state between parses. That saves
    time only where ``main`` runs many times in one process (library
    use, tests); a one-shot ``ndtcache`` call builds it once either way."""
    parser = _Parser(prog="ndtcache", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # An option left out is left out of the namespace too, so RunConfig
        # supplies its default.
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for option in command.options:
            p.add_argument("--" + option.replace("_", "-"), **_OPTIONS[option])
        p.add_argument("--format", dest="output_format", choices=("csv", "json"))
        p.add_argument("--output", dest="output_path", type=Path,
                       help="output file (default stdout)")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the options the subcommand was given."""
    opts = dict(vars(args))
    if "mu" in opts:
        try:
            opts["mu"] = as_rational(opts["mu"])
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"--mu must be a fraction such as 4/5 or a decimal such as 0.8, "
                             f"got {opts['mu']!r}") from None
        if not 0 <= opts["mu"] <= 1:
            raise UsageError(f"--mu must lie in [0, 1], got {opts['mu']}")
        if "grid" in opts:
            raise UsageError("--mu and --grid are mutually exclusive")
    if "snr_db" in opts:
        try:
            opts["snr_db"] = tuple(float(x) for x in opts["snr_db"].split(","))
        except ValueError:
            raise UsageError(f"--snr-db must be comma-separated numbers, "
                             f"got {opts['snr_db']!r}") from None
    return RunConfig(**opts)


def main(argv: list[str] | None = None) -> int:
    args = argparse.Namespace(command="ndtcache")
    try:
        args = build_parser().parse_args(argv)
        return run(_config_from_args(args))
    except ValueError as exc:  # UsageError is a ValueError
        _error_line("usage", str(exc))
        return EXIT_USAGE
    except MemoryError:
        # emit writes nothing until the whole artifact is built, so stdout is empty
        _error_line("out-of-memory", f"{args.command} ran out of memory")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

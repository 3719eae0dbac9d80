import contextlib
import csv
import io
import json
import math
import resource
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndtcache.cli import (
    COMMANDS,
    EXIT_OK,
    EXIT_UNCHARACTERIZED,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    MAX_GRID,
    RATES_COLUMNS,
    VERIFY_COLUMNS,
    RunConfig,
    _result_rows,
    emit,
    main,
    run,
)
from ndtcache import __version__
from ndtcache.bounds import (
    achievable_catalog,
    lower_bound,
    lower_bound_curve,
    memory_sharing_envelope,
)
from ndtcache.model import NetworkConfig
from ndtcache import verify
from ndtcache.verify import (
    SubspaceReport,
    VerificationReport,
    finite_snr_rates,
    verify_corner,
    verify_m1k3,
)
from test_bounds import large_mu, scan_evaluate
from test_trial_blocks import traced_peak


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def cap_address_space(limit=1024**3):
    # 1 GB by default: a run that would use more fails fast, where a hang can time out
    resource.setrlimit(resource.RLIMIT_AS, (limit,) * 2)


class TestTradeoff:
    def test_grid_table_contains_exact_corner(self, capsys):
        code, out, err = run_cli(capsys, "tradeoff", "--m", "1", "--k", "3", "--grid", "20")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 21
        corner = next(r for r in rows if r["mu"] == "4/5")
        assert corner["lower_bound"] == "8/5"
        assert corner["achievable_envelope"] == "8/5"
        assert corner["gap"] == "0"

    def test_decimal_columns_match_rationals(self, capsys):
        code, out, _ = run_cli(capsys, "tradeoff", "--m", "2", "--k", "2", "--grid", "9")
        assert code == EXIT_OK
        for row in parse_csv(out):
            for name in ("mu", "lower_bound", "achievable_envelope", "gap"):
                exact = float(Fraction(row[name]))
                assert row[f"{name}_decimal"] == format(exact, ".15g")

    def test_single_mu(self, capsys):
        code, out, _ = run_cli(capsys, "tradeoff", "--m", "1", "--k", "3", "--mu", "0.8")
        rows = parse_csv(out)
        assert code == EXIT_OK
        assert len(rows) == 1
        assert rows[0]["mu"] == "4/5"

    def test_mu_and_grid_conflict(self, capsys):
        code, _, err = run_cli(capsys, "tradeoff", "--m", "1", "--k", "3",
                               "--mu", "1/2", "--grid", "10")
        assert code == EXIT_USAGE
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("args, detail", [
        (["--mu", "1/2", "--grid", "10"], "--mu and --grid are mutually exclusive"),
        (["--grid", "0", "--mu", "1/2"], "--mu and --grid are mutually exclusive"),
        (["--mu", "2", "--grid", "10"], "--mu must lie in [0, 1], got 2"),
        (["--grid", "0"], "--grid must be positive"),
        (["--grid", "100001"], "--grid must be at most 100000, got 100001"),
    ])
    def test_grid_usage_error_lines(self, capsys, args, detail):
        code, out, err = run_cli(capsys, "tradeoff", "--m", "1", "--k", "3", *args)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == json.dumps({"error": "usage", "detail": detail}) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 12), k=st.integers(1, 24),
           point=st.one_of(st.integers(1, 120), st.fractions(0, 1, max_denominator=40)))
    def test_rows_match_pointwise_references(self, m, k, point):
        """Each row against references that share no code with the curve
        walk: the hull-free converse, a segment scan of the envelope, the
        exact difference and float() of each exact cell."""
        option = ["--grid", str(point)] if isinstance(point, int) else ["--mu", str(point)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["tradeoff", "--m", str(m), "--k", str(k), *option]) == EXIT_OK
        rows = parse_csv(out.getvalue())
        mus = ([Fraction(i, point) for i in range(point + 1)] if isinstance(point, int)
               else [point])
        envelope = memory_sharing_envelope(achievable_catalog(m, k))
        assert [Fraction(row["mu"]) for row in rows] == mus
        for mu, row in zip(mus, rows):
            lb, ach, gap = (Fraction(row[c]) for c in ("lower_bound", "achievable_envelope", "gap"))
            assert lb == lower_bound(NetworkConfig(M=m, K=k, N=m + k, mu=mu))
            assert ach == scan_evaluate(envelope, mu)
            assert gap == ach - lb
            for name in ("mu", "lower_bound", "achievable_envelope", "gap"):
                assert row[name] == str(Fraction(row[name]))
                assert row[f"{name}_decimal"] == format(float(Fraction(row[name])), ".15g")

    def test_default_grid_lives_in_run_config(self, capsys):
        code, out, _ = run_cli(capsys, "tradeoff", "--m", "1", "--k", "3")
        assert code == EXIT_OK
        assert len(parse_csv(out)) == RunConfig.grid + 1 == 61
        with pytest.raises(SystemExit):
            main(["tradeoff", "--help"])
        assert f"(default {RunConfig.grid})" in capsys.readouterr().out


class TestBoundsAndOptimal:
    def test_breakpoints_exact_strings(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--m", "1", "--k", "3")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [(r["mu"], r["ndt"]) for r in rows] == [
            ("0", "4"), ("4/5", "8/5"), ("1", "3/2"),
        ]

    def test_point_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--m", "3", "--k", "4", "--mu", "1/3")
        rows = parse_csv(out)
        assert code == EXIT_OK
        assert rows[0]["lower_bound"] == "5/3"

    def test_optimal_curve(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--m", "2", "--k", "2")
        rows = parse_csv(out)
        assert code == EXIT_OK
        assert [(r["mu"], r["ndt"]) for r in rows] == [
            ("0", "4"), ("4/9", "4/3"), ("1/2", "5/4"), ("1", "1"),
        ]

    def test_uncharacterized_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "optimal", "--m", "3", "--k", "3")
        assert code == EXIT_UNCHARACTERIZED
        assert out == ""
        assert err == ('{"error": "uncharacterized-configuration", "detail": "uncharacterized '
                       'configuration (M=3, K=3): optimal NDT is an open problem"}\n')

    def test_bad_mu_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--m", "1", "--k", "1", "--mu", "5/4")
        assert code == EXIT_USAGE
        code, _, err = run_cli(capsys, "bounds", "--m", "1", "--k", "1", "--mu", "abc")
        assert code == EXIT_USAGE


class TestVerifyCommands:
    def test_m1k3_csv_report_cells_are_clean(self, capsys):
        code, out, _ = run_cli(capsys, "verify-m1k3", "--trials", "5", "--seed", "7",
                               "--format", "csv")
        assert code == EXIT_OK
        assert "np.float64" not in out
        rows = parse_csv(out)
        assert float(rows[1]["zf_residual"]) < 1e-10

    @pytest.mark.parametrize("args, exit_code", [
        (["rates", "--trials", "5", "--seed", "7"], EXIT_OK),
        (["verify-corner", "--m", "2", "--k", "3", "--mu", "0", "--trials", "5"], EXIT_OK),
        (["verify-corner", "--m", "2", "--k", "3", "--mu", "1", "--trials", "5"], EXIT_OK),
        # out of redraws: the partial report of trial 0, and of 48 trials
        (["verify-corner", "--m", "1", "--k", "2", "--mu", "1", "--tol", "0.999",
          "--trials", "3"], EXIT_VERIFICATION),
        (["verify-m1k3", "--trials", "60", "--tol", "8e-2", "--seed", "0"], EXIT_VERIFICATION),
    ])
    def test_csv_report_cells_are_clean(self, capsys, args, exit_code):
        # csv writes a float as its repr, and a numpy scalar's repr is "np.float64(...)"
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == exit_code
        assert "np." not in out
        floats = [row[c] for row in parse_csv(out) for c in
                  ("zf_residual", "alignment_residual", "decode_max_error",
                   "snr_db", "rate", "fitted_slope") if row.get(c)]
        assert floats
        assert all(cell == repr(float(cell)) for cell in floats)

    def test_report_floats_are_plain(self):
        estimates = finite_snr_rates(7, [40.0, 50.0, 60.0], 5)
        assert {type(getattr(e, name)) for e in estimates
                for name in ("snr_db", "rate", "fitted_slope")} == {float}
        report = verify_m1k3(7, 5)
        assert {type(report.decode_max_error)} | {
            type(getattr(sub, name)) for sub in report.ue_reports + report.rn_reports
            for name in ("zf_residual", "alignment_residual")} == {float}

    def test_m1k3_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify-m1k3", "--trials", "10", "--seed", "7")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["meta"]["command"] == "verify-m1k3"
        assert (payload["meta"]["M"], payload["meta"]["K"]) == (1, 3)
        overall = payload["data"][0]
        assert overall["receiver"] == "overall"
        assert overall["failures"] == 0
        assert overall["ndt"] == "8/5"
        assert overall["per_ue_dof"] == "5/8"
        receivers = [row["receiver"] for row in payload["data"][1:]]
        assert receivers == ["ue1", "ue2", "ue3", "rn1"]

    def test_corner_requires_mu(self, capsys):
        code, _, err = run_cli(capsys, "verify-corner", "--m", "1", "--k", "2")
        assert code == EXIT_USAGE
        code, _, err = run_cli(capsys, "verify-corner", "--m", "1", "--k", "2", "--mu", "1/2")
        assert code == EXIT_USAGE

    def test_corner_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-corner", "--m", "2", "--k", "3", "--mu", "1",
            "--trials", "5", "--format", "json",
        )
        assert code == EXIT_OK
        overall = json.loads(out)["data"][0]
        assert overall["ndt"] == "1"
        assert overall["failures"] == 0

    def test_verification_failure_exit_code_and_report(self, capsys, monkeypatch):
        import ndtcache.verify as V

        monkeypatch.setattr(V, "DECODE_ERROR_MAX", 0.0)
        code, out, err = run_cli(capsys, "verify-m1k3", "--trials", "2", "--seed", "1")
        assert code == EXIT_VERIFICATION
        payload = json.loads(out)  # report still emitted
        assert payload["data"][0]["failures"] == 2
        assert json.loads(err)["error"] == "verification-failure"

    def test_every_report_field_is_emitted(self):
        # a report field that no column writes is one that no command shows
        assert [f.name for f in fields(SubspaceReport)] == VERIFY_COLUMNS[:6]
        scalars = {f.name for f in fields(VerificationReport) if not f.type.startswith("tuple")}
        assert scalars == {c for c in VERIFY_COLUMNS[6:] if not c.endswith("_decimal")}


class TestRates:
    def test_rates_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--trials", "5", "--seed", "3",
            "--snr-db", "40,50,60", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 12  # 4 receivers x 3 SNR points
        assert {r["receiver"] for r in rows} == {"ue1", "ue2", "ue3", "rn"}
        slopes = {r["receiver"]: float(r["fitted_slope"]) for r in rows}
        assert 0.3 < slopes["ue1"] < 0.7  # loose: 5 trials only

    @pytest.mark.filterwarnings("error")  # no numpy warning may come before the message
    @pytest.mark.parametrize("snr_db", ["4000,5000,6000", "-4000,-5000,-6000"])
    def test_powers_that_overflow_or_vanish_are_named(self, capsys, snr_db):
        code, out, err = run_cli(capsys, "rates", "--trials", "2", "--snr-db", snr_db)
        assert (code, out) == (EXIT_USAGE, "")
        points = [float(x) for x in snr_db.split(",")]
        assert err == json.dumps({"error": "usage", "detail": "SNR points must have a finite, "
                                  f"positive power 10**(dB/10), got {points}"}) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rates_that_overflow_are_one_usage_line(self, fmt):
        # each power is finite, but power times channel gain is not; in a
        # fresh process, so a numpy warning would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "ndtcache", "rates", "--trials", "2",
             "--snr-db", "3040,3060,3080", "--format", fmt], capture_output=True, text=True,
            timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr == json.dumps({
            "error": "usage",
            "detail": "SNR points must give finite rates, got [3040.0, 3060.0, 3080.0]"}) + "\n"


class TestEmitAndDeterminism:
    def test_json_round_trip(self, tmp_path):
        payload = {
            "meta": {"command": "bounds", "M": 1, "K": 3, "seed": 0,
                     "tol": 1e-9, "version": "0.1.0"},
            "data": [{"mu": "4/5", "mu_decimal": "0.8", "ndt": "8/5", "ndt_decimal": "1.6"}],
        }
        path = tmp_path / "out.json"
        wrote = emit(payload["meta"], [["4/5", "0.8", "8/5", "1.6"]],
                     ["mu", "mu_decimal", "ndt", "ndt_decimal"], "json", path)
        raw = path.read_bytes()
        assert wrote == len(raw)
        assert raw.endswith(b"\n")
        assert json.loads(raw.decode("utf-8")) == payload

    def test_empty_report_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit({}, [], ["mu", "ndt"], "csv", path)
        assert path.read_text() == "mu,ndt\n"

    def test_byte_identical_runs(self, capsys):
        args = ["verify-m1k3", "--trials", "8", "--seed", "13", "--format", "json"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert out1.encode() == out2.encode()

        args = ["tradeoff", "--m", "1", "--k", "3", "--grid", "30"]
        main(args)
        out1 = capsys.readouterr().out
        main(args)
        out2 = capsys.readouterr().out
        assert out1.encode() == out2.encode()

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "bounds", "--m", "1", "--k", "1",
                               "--output", str(path))
        assert code == EXIT_OK
        assert out == ""
        text = path.read_text()
        assert text.endswith("\n")
        assert parse_csv(text)[0]["mu"] == "0"


def reference_cells(**values):
    """The former cells of an exact row: a dict holding each value n/d's
    str of its Fraction and its .15g decimal, reduced by one gcd."""
    row = {}
    for name, (n, d) in values.items():
        g = math.gcd(n, d)
        n, d = n // g, d // g
        row[name] = f"{n}/{d}" if d != 1 else str(n)
        row[f"{name}_decimal"] = f"{n / d:.15g}"
    return row


def reference_result_rows(report):
    """The former dict rows of a Monte Carlo result."""
    if isinstance(report, list):
        return [asdict(e) for e in report]
    overall = {
        "receiver": "overall", **dict.fromkeys(VERIFY_COLUMNS[1:6], ""),
        **reference_cells(**{name: getattr(report, name).as_integer_ratio()
                             for name in ("ndt", "per_ue_dof", "rn_dof", "sum_dof")}),
        "decode_max_error": report.decode_max_error, "trials": report.trials,
        "failures": report.failures, "redraws": report.redraws,
    }
    return [overall] + [
        {**{col: getattr(sub, col) for col in VERIFY_COLUMNS[:6]},
         **dict.fromkeys(VERIFY_COLUMNS[6:], "")}
        for sub in report.ue_reports + report.rn_reports
    ]


def reference_text(meta, data, columns, output_format):
    """The former serialization of dict rows: json.dumps of {meta, data},
    or csv.writer over each row's values through itemgetter."""
    if output_format == "json":
        return json.dumps({"meta": meta, "data": data}, indent=2, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(itemgetter(*columns), data))
    return buf.getvalue()


def emitted(rows, columns, output_format, meta=None):
    """What emit writes to stdout, and the count it returns."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        size = emit(meta or {}, rows, columns, output_format, None)
    return out.getvalue(), size


class _Discard(io.TextIOBase):
    """A text stream that counts what it is given and keeps none of it."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


class TestRowWriter:
    """Rows as lists of cells, joined into CSV, against the former dict
    rows through csv.writer and json.dumps."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 12), k=st.integers(1, 24),
           point=st.one_of(st.integers(1, 300), large_mu,
                           st.sampled_from([Fraction(0), Fraction(1)])),
           output_format=st.sampled_from(["csv", "json"]))
    def test_tradeoff_bytes_match_the_reference(self, m, k, point, output_format):
        option = ["--grid", str(point)] if isinstance(point, int) else ["--mu", str(point)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["tradeoff", "--m", str(m), "--k", str(k), *option,
                         "--format", output_format]) == EXIT_OK
        mus = ([(i, point) for i in range(point + 1)] if isinstance(point, int)
               else [point.as_integer_ratio()])
        envelope = memory_sharing_envelope(achievable_catalog(m, k))
        data = [reference_cells(mu=mu, lower_bound=(ln, ld), achievable_envelope=(an, ad),
                                gap=(an * ld - ln * ad, ad * ld))
                for mu, (ln, ld), (an, ad) in zip(mus, lower_bound_curve(m, k)._walk(mus),
                                                  envelope._walk(mus))]
        meta = {"command": "tradeoff", "M": m, "K": k, "version": __version__}
        assert out.getvalue() == reference_text(meta, data, list(data[0]), output_format)

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_monte_carlo_bytes_match_the_reference(self, output_format):
        results = [
            (verify_m1k3(13, 5), VERIFY_COLUMNS),
            (verify_corner(13, 5, NetworkConfig(M=2, K=3, N=5, mu=Fraction(1)), 1e-9),
             VERIFY_COLUMNS),
            (finite_snr_rates(13, [-10.0, 40.0, 60.0], 5), RATES_COLUMNS),
        ]
        meta = {"command": "verify-m1k3", "M": 1, "K": 3, "seed": 13, "tol": 1e-9}
        for result, columns in results:
            rows, emitted_columns = _result_rows(result)
            assert emitted_columns == columns
            assert emitted(rows, columns, output_format, meta)[0] == reference_text(
                meta, reference_result_rows(result), columns, output_format)

    def test_empty_table_is_the_header(self):
        assert emitted([], ["mu", "ndt"], "csv") == ("mu,ndt\n", 7)
        assert emitted([], ["mu", "ndt"], "csv")[0] == reference_text({}, [], ["mu", "ndt"], "csv")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 17, 100])
    def test_every_row_count_gives_the_reference(self, n):
        # the CSV is built in pieces of about sqrt(n) rows
        rows = [[str(i), f"{i}/7", ""] for i in range(n)]
        expected = reference_text({}, [dict(zip("abc", row)) for row in rows], list("abc"), "csv")
        assert emitted(rows, list("abc"), "csv") == (expected, len(expected))

    def test_stdout_count_is_bytes(self):
        text, size = emitted([["\u00e9"]], ["\u00fc"], "csv")
        assert text == "\u00fc\n\u00e9\n"
        assert size == len(text.encode("utf-8")) == 6

    def test_emit_holds_the_csv_text_about_once(self):
        """A 100,000-row table written to stdout peaks below 1.5x its text:
        emit makes no bytes copy of it, and holds no list of every line
        beside it."""
        rows, columns = COMMANDS["tradeoff"].rows(RunConfig("tradeoff", m=10, k=20, grid=99_999))
        sink, sizes = _Discard(), []
        with contextlib.redirect_stdout(sink):
            peak = traced_peak(lambda: sizes.append(emit({}, rows, columns, "csv", None)),
                               warm_up=lambda: emitted(rows[:9], columns, "csv"))
        assert len(rows) == 100_000
        assert sizes == [sink.written]
        assert peak < 1.5 * sink.written


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ndtcache", "bounds", "--m", "1", "--k", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "3" in proc.stdout

    def test_byte_identical_across_processes(self):
        cmd = [sys.executable, "-m", "ndtcache", "verify-m1k3",
               "--trials", "6", "--seed", "21", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True).stdout
        second = subprocess.run(cmd, capture_output=True).stdout
        assert first == second
        assert first.endswith(b"\n")

    def test_usage_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "tradeoff", "--m", "0", "--k", "1")
        assert code == EXIT_USAGE


class TestInputHardening:
    @pytest.mark.parametrize("args", [
        ["verify-m1k3", "--tol", "nan"],
        ["verify-m1k3", "--tol", "inf"],
        ["verify-m1k3", "--tol", "0"],
        ["verify-m1k3", "--tol", "1"],
        ["verify-corner", "--m", "1", "--k", "2", "--mu", "1", "--tol", "-1e-9"],
        ["rates", "--snr-db", "nan,50,60"],
        ["rates", "--snr-db", "40,inf,60"],
        ["tradeoff", "--n", "2", "--m", "1", "--k", "3"],
        ["bounds", "--n", "3", "--m", "1", "--k", "3"],
        ["verify-corner", "--n", "2", "--m", "1", "--k", "3", "--mu", "0"],
        ["tradeoff", "--n", "9", "--m", "1", "--k", "3"],
        ["rates", "--tol", "0.5"],
    ])
    def test_rejected_with_one_json_error_line(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == EXIT_USAGE
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "usage"

    @pytest.mark.parametrize("args, detail", [
        (["verify-corner", "--m", "1", "--k", "2", "--mu", "1", "--tol", "-1e-9"],
         "--tol must lie in (0, 1), got -1e-09"),
        (["verify-m1k3", "--tol", "-inf"], "--tol must lie in (0, 1), got -inf"),
        (["bounds", "--mu", "-1/2"], "--mu must lie in [0, 1], got -1/2"),
        (["verify-m1k3", "--seed", "-1"], "--seed must be non-negative, got -1"),
    ])
    def test_negative_values_reach_the_range_checks(self, capsys, args, detail):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == json.dumps({"error": "usage", "detail": detail}) + "\n"

    @pytest.mark.parametrize("args, detail", [
        (["bounds", "--mu", value],
         f"--mu must be a fraction such as 4/5 or a decimal such as 0.8, got '{value}'")
        for value in ("abc", "1/0", "nan", "inf")
    ] + [
        (["rates", "--snr-db", "a,b,c"], "--snr-db must be comma-separated numbers, got 'a,b,c'"),
        (["rates", "--snr-db", "40,,60"], "--snr-db must be comma-separated numbers, got '40,,60'"),
        # a result with more digits than int-to-str conversion allows
        (["bounds", "--mu", "1e-20000"],
         "--mu must be a fraction such as 4/5 or a decimal such as 0.8, got '1e-20000'"),
    ])
    def test_unparsable_values_name_their_option(self, capsys, args, detail):
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == json.dumps({"error": "usage", "detail": detail}) + "\n"

    def test_huge_mu_exponent_exits_at_once(self):
        # Fraction would build 10 ** 999999999 first: run it where a hang can time out
        proc = subprocess.run(
            [sys.executable, "-m", "ndtcache", "bounds", "--m", "1", "--k", "3",
             "--mu", "1e999999999"], capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr == json.dumps({
            "error": "usage",
            "detail": "--mu must be a fraction such as 4/5 or a decimal such as 0.8, "
                      "got '1e999999999'",
        }) + "\n"

    def test_huge_grid_exits_at_once(self):
        # 3e6 rows once ran out of memory with a traceback
        proc = subprocess.run(
            [sys.executable, "-m", "ndtcache", "tradeoff", "--m", "1", "--k", "3",
             "--grid", "3000000"], capture_output=True, text=True, timeout=20,
            preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr == json.dumps({
            "error": "usage", "detail": "--grid must be at most 100000, got 3000000"}) + "\n"

    @pytest.mark.parametrize("argv", [
        ["bounds", "--m", "3000", "--k", "4000"],  # millions of bound components
        # a unicast trial holds f and g, 1.6 GB at (5000, 5000); H is never held
        ["verify-corner", "--m", "5000", "--k", "5000", "--mu", "0", "--trials", "1"],
    ])
    def test_out_of_memory_is_one_json_line(self, argv):
        proc = subprocess.run([sys.executable, "-m", "ndtcache", *argv], capture_output=True,
                              text=True, timeout=20, preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr == json.dumps({
            "error": "out-of-memory", "detail": f"{argv[0]} ran out of memory"}) + "\n"

    def test_large_corner_run_fits_under_the_cap(self, capsys, monkeypatch):
        # a (60, 60) unicast trial holds 0.46 MB of f, g and symbols and runs
        # alone in its block; its 7.1 MB row of floats streams through the scratch
        argv = ["verify-corner", "--m", "60", "--k", "60", "--mu", "0", "--trials", "64"]
        proc = subprocess.run([sys.executable, "-m", "ndtcache", *argv], capture_output=True,
                              text=True, timeout=60,
                              preexec_fn=lambda: cap_address_space(512 * 1024**2))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert json.loads(proc.stdout)["data"][0]["failures"] == 0
        # 34 trials a block, and whole rows, two a fill, in the scratch
        monkeypatch.setattr(verify, "BLOCK_BYTES", 16 * 10**6)
        assert run_cli(capsys, *argv) == (EXIT_OK, proc.stdout, "")

    def test_unicast_trial_larger_than_the_cap_runs(self):
        # (250, 250): H is 31.25 million coefficients, 0.5 GB as floats and
        # 0.5 GB more as complex values; the trial holds only f, g and the
        # symbols, 4 MB
        argv = ["verify-corner", "--m", "250", "--k", "250", "--mu", "0", "--trials", "1"]
        proc = subprocess.run([sys.executable, "-m", "ndtcache", *argv], capture_output=True,
                              text=True, timeout=60, preexec_fn=cap_address_space)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert json.loads(proc.stdout)["data"][0]["failures"] == 0

    def test_grid_limit_is_one_constant(self):
        # the limit itself is accepted; one more is a usage error (TestTradeoff)
        assert RunConfig("tradeoff", grid=MAX_GRID).grid == MAX_GRID == 100_000

    def test_negative_snr_points_are_values(self, capsys):
        code, out, err = run_cli(capsys, "rates", "--trials", "2", "--snr-db", "-10,5,20",
                                 "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert [row["snr_db"] for row in parse_csv(out)[:3]] == ["-10.0", "5.0", "20.0"]

    def test_json_output_refuses_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError):
            emit({}, [[float("nan")]], ["rate"], "json", tmp_path / "out.json")


class TestRedrawExhaustion:
    def test_report_still_emitted(self, capsys):
        code, out, err = run_cli(capsys, "verify-corner", "--m", "1", "--k", "2",
                                 "--mu", "1", "--tol", "0.999", "--trials", "3")
        assert code == EXIT_VERIFICATION
        overall = json.loads(out)["data"][0]
        assert (overall["trials"], overall["failures"], overall["redraws"]) == (1, 1, 8)
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "verification-failure",
            "detail": "trial 0: 9 consecutive degenerate channel draws",
        }


    def test_rates_exhaustion_writes_the_partial_table(self, capsys, monkeypatch):
        import ndtcache.verify as V

        # at tol 8e-2 trial 48 of seed 0 is degenerate on all nine draws
        solve = V._solve_m1k3
        monkeypatch.setattr(V, "_solve_m1k3", lambda tol: solve(8e-2))
        code, out, err = run_cli(capsys, "rates", "--trials", "60", "--seed", "0")
        assert code == EXIT_VERIFICATION
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "verification-failure",
            "detail": "trial 48: 9 consecutive degenerate channel draws",
        }
        assert (EXIT_OK, out) == run_cli(capsys, "rates", "--trials", "48", "--seed", "0")[:2]
        # out of redraws at trial 0: the table has no data rows
        monkeypatch.setattr(V, "_solve_m1k3", lambda tol: solve(0.9))
        code, out, _ = run_cli(capsys, "rates", "--trials", "2", "--format", "csv")
        assert (code, out) == (EXIT_VERIFICATION, "receiver,snr_db,rate,fitted_slope\n")


class TestOutputErrors:
    def test_missing_directory_is_one_usage_line(self, capsys, tmp_path):
        path = tmp_path / "missing" / "curve.csv"
        code, out, err = run_cli(capsys, "bounds", "--m", "1", "--k", "3",
                                 "--output", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == json.dumps({
            "error": "usage",
            "detail": f"cannot write {path}: No such file or directory",
        }) + "\n"

    def test_failed_verification_says_the_report_was_not_written(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "verify-corner", "--m", "1", "--k", "2", "--mu", "1",
                                 "--tol", "0.999", "--trials", "3", "--output", str(path))
        assert (code, out) == (EXIT_VERIFICATION, "")
        assert err == json.dumps({
            "error": "verification-failure",
            "detail": "trial 0: 9 consecutive degenerate channel draws; report not written: "
                      f"cannot write {path}: No such file or directory",
        }) + "\n"


class TestCommandTable:
    @pytest.mark.parametrize("command", ["rates", "verify-m1k3"])
    def test_library_run_reports_the_fixed_network(self, capsys, command):
        assert run(RunConfig(command, trials=3, output_format="json")) == EXIT_OK
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert (meta["command"], meta["M"], meta["K"]) == (command, 1, 3)

    def test_library_run_writes_the_command_format(self, capsys):
        assert {name: RunConfig(name).output_format for name in COMMANDS} == {
            name: command.output_format for name, command in COMMANDS.items()}
        assert RunConfig("verify-m1k3", output_format="csv").output_format == "csv"
        assert run(RunConfig("verify-m1k3", trials=3)) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["meta"]["command"] == "verify-m1k3"


# Per option: small valid values, then malformed or out-of-range ones.
_VALUES = {
    "m": (["1", "2", "3", "4"], ["0", "-1", "x"]),
    "k": (["1", "2", "3", "4"], ["0", "x"]),
    "mu": (["0", "1", "1/2", "4/5", "0.8", "1/3"],
           ["2", "-1/2", "-0.8", "abc", "1/0", "nan", "inf", "1e-20000", "1e999999999"]),
    "grid": (["1", "3", "8"], ["0", "-2", "x", "3000000"]),
    "seed": (["0", "1", "7"], ["x", "-1"]),
    "trials": (["1", "2", "3"], ["0", "-1"]),
    "tol": (["1e-9", "1e-3", "0.5"], ["0", "1", "nan", "inf", "x", "-1e-9", "-0.5", "-inf"]),
    "snr_db": (["40,50,60", "30,45,60"], ["40,50", "40,45,50", "nan,50,60", "a", "a,b,c"]),
    "format": (["csv", "json"], ["xml"]),
}


# A directory that no run creates: the fuzz's --output paths lie inside it.
_MISSING_DIR = Path(tempfile.gettempdir()) / "ndtcache-fuzz-missing" / "nested"


@st.composite
def cli_argvs(draw):
    """A command with valid values for a subset of its options (always
    --trials where it takes one, so each run stays small), and in about
    half the draws one fault: a bad value, an option it does not take, or
    an --output path in a missing directory."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    own = (*COMMANDS[name].options, "format")
    options = draw(st.lists(st.sampled_from(own), unique=True))
    if "trials" in own and "trials" not in options:
        options.append("trials")
    values = {option: draw(st.sampled_from(_VALUES[option][0])) for option in options}
    fault = draw(st.sampled_from([None, None, None, "value", "option", "output"]))
    if fault == "value":
        option = draw(st.sampled_from(own))
        values[option] = draw(st.sampled_from(_VALUES[option][1]))
    elif fault == "option":
        values[draw(st.sampled_from(sorted({*_VALUES, "n"} - set(own))))] = "5"
    elif fault == "output":
        values["output"] = str(_MISSING_DIR / draw(st.sampled_from(["out.csv", "out.json", "x"])))
    argv = [name]
    for option, value in values.items():
        argv += ["--" + option.replace("_", "-"), value]
    return argv


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


@settings(max_examples=200, deadline=None)
@given(cli_argvs())
def test_cli_fuzz_exit_codes_and_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, EXIT_UNCHARACTERIZED)
    if "--output" in argv:
        assert code != EXIT_OK
        assert out.getvalue() == ""
        assert not _MISSING_DIR.exists()
    if code == EXIT_OK:
        assert err.getvalue() == ""
        output_format = (argv[argv.index("--format") + 1] if "--format" in argv
                         else COMMANDS[argv[0]].output_format)
        if output_format == "json":
            json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "detail"}
        assert "expected one argument" not in line
        # no bare Fraction or float parse message: each names its option
        assert not any(bare in line for bare in ("Invalid literal", "Fraction(", "could not convert"))
        if code != EXIT_VERIFICATION:
            assert out.getvalue() == ""

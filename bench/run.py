"""ndtcache benchmark: times whole CLI commands, one workload per call.

  python3 bench/run.py --workload m1k3 --seed 1 --seconds 30 --trace 0

With --trace 0 it measures set-up (fresh interpreters importing
ndtcache and ndtcache.cli), then runs passes of the workload, each in a
fresh process started after the previous one ended, until --seconds
is used. A pass runs all of the workload's commands once and reports
its wall time after import, its peak RSS and each command's output
sha256 and output check. With --trace 1 it alternates untraced and
traced passes and reports per-layer counts and self times instead.

Human-readable lines come first; the last stdout line is one JSON
object {correct, attempted, failed, metrics}. The full run record
(passes, sha256 per command, machine facts) goes to bench/out/.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from itertools import cycle
from pathlib import Path
from time import perf_counter

from tracer import LINALG, TIMED
from workloads import ROOT, SCALES, SRC, WORKLOADS, commands

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_SAMPLES = {"full": 9, "tiny": 2}
PASS_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ndtcache, ndtcache.cli; print(time.perf_counter() - t, ndtcache.__file__)"
)
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Layers called a few times per command: only their self time (glue) is
# reported. Every other timed layer reports calls and self time.
GLUE_LAYERS = (
    "verify.verify_m1k3", "verify.finite_snr_rates", "verify.verify_corner",
    "bounds.achievable_catalog", "bounds.memory_sharing_envelope", "cli.run",
)
DEGENERATE_LAYERS = ("scheme_m1k3.solve_precoders", "corner.miso_zf_plan")


class BenchmarkError(Exception):
    """The benchmark could not measure: no package, or no pass completed."""


def measure_setup(samples: int) -> list[float]:
    """Import time of ndtcache and ndtcache.cli in fresh interpreters.

    One extra interpreter runs first and is discarded: in a fresh
    checkout it writes the bytecode caches, which users do not pay for
    on every call.
    """
    times = []
    for _ in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchmarkError(f"importing ndtcache failed:\n{done.stderr}")
        seconds, origin = done.stdout.split()
        if Path(origin).resolve().parent != SRC / "ndtcache":
            raise BenchmarkError(f"ndtcache was imported from {origin}, not {SRC}")
        times.append(float(seconds))
    return times[1:]


def run_pass(workload: str, seed: int, scale: str, traced: bool) -> dict:
    """One pass in a fresh process; its record, or one with an 'error'."""
    argv = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
            "--seed", str(seed), "--scale", scale, "--trace", str(int(traced))]
    if traced:
        argv += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json.gz")]
    start = perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        error = None if done.returncode == 0 else f"exit {done.returncode}\n{done.stderr[-4000:]}"
    except subprocess.TimeoutExpired:
        error = f"no result within {PASS_TIMEOUT_S} s"
    record = {"error": error, "commands": []} if error else json.loads(done.stdout.splitlines()[-1])
    record["traced"] = traced
    record["elapsed_s"] = perf_counter() - start
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> list[dict]:
    """Passes until the next one would end after ``seconds``; at least one
    of each kind (untraced, and traced when tracing)."""
    kinds = cycle((False, True) if trace else (False,))
    passes: list[dict] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, seed, scale, next(kinds)))
        if "error" in passes[-1]:
            return passes  # the program is broken; more passes would fail too
        kinds_done = {p["traced"] for p in passes}
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if len(kinds_done) == (2 if trace else 1) and perf_counter() - start + typical > seconds:
            return passes


def quartiles(values: list[float]) -> dict:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(traced: list[dict], untraced_walls: list[float]) -> dict:
    """Per-layer metrics: counts from one traced pass (they repeat exactly),
    self times as medians over the traced passes."""
    first = traced[0]["layers"]
    calls, raised = first["calls"], first["raised"]

    def self_s(name: str) -> float:
        return statistics.median(p["layers"]["self_s"].get(name, 0.0) for p in traced)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: dict = {}
    for name in TIMED:
        if name not in GLUE_LAYERS:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in DEGENERATE_LAYERS:
        metrics[f"{name}.degenerate_share"] = (
            share(raised.get(name, 0), calls.get(name, 0)), "ratio")
    redraws = sum(raised.get(name, 0) for name in DEGENERATE_LAYERS)
    metrics["verify.redraw_share"] = (share(redraws, calls.get("verify.draw_channels", 0)), "ratio")
    metrics["scheme_m1k3.SymbolId.hash_calls"] = (first["hash_calls"], "count")
    metrics["numpy.linalg.share"] = (statistics.median(
        share(sum(p["layers"]["self_s"].get(n, 0.0) for n in LINALG), p["wall_s"])
        for p in traced), "s/s")
    metrics["bounds.curve_reuse"] = (
        share(first["distinct_curves"], calls.get("bounds.lower_bound_curve", 0)), "ratio")
    metrics["cli.emit.bytes"] = (first["emit_bytes"], "bytes")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced_walls), "s")
    return metrics


def _counts(layers: dict) -> tuple:
    return (layers["calls"], layers["raised"], layers["hash_calls"],
            layers["emit_bytes"], layers["distinct_curves"])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full run record)."""
    if not (SRC / "ndtcache" / "__init__.py").is_file():
        raise BenchmarkError(f"no ndtcache package under {SRC}")
    OUT.mkdir(exist_ok=True)
    setup = [] if trace else measure_setup(SETUP_SAMPLES[scale])
    passes = run_passes(workload, seed, seconds, trace, scale)
    good = [p for p in passes if "error" not in p]
    if not good:
        raise BenchmarkError("no pass completed:\n" + passes[0]["error"])

    per_pass = len(commands(workload, seed, scale))
    attempted = per_pass * len(passes)
    failed = sum(per_pass for p in passes if "error" in p) + sum(
        1 for p in good for c in p["commands"] if c["problems"])
    digests = {tuple(c["sha256"] for c in p["commands"]) for p in good}
    traced = [p for p in good if p["traced"]]
    untraced_walls = [p["wall_s"] for p in good if not p["traced"]]
    restored = all(p["restored"] for p in traced)
    correct = failed == 0 and len(digests) == 1 and restored

    summary = {
        "wall_s": quartiles(untraced_walls) if untraced_walls else None,
        "failed_share": {"value": failed / attempted, "failed": failed, "attempted": attempted},
    }
    if trace:
        metrics = layer_metrics(traced, untraced_walls) if traced and untraced_walls else {}
        summary["counts_repeat"] = len({json.dumps(_counts(p["layers"]), sort_keys=True)
                                        for p in traced}) == 1
        summary["missing_layers"] = traced[0]["layers"]["missing"] if traced else []
    else:
        summary["setup_s"] = quartiles(setup)
        summary["peak_rss_mb"] = quartiles([p["peak_rss_mb"] for p in good])
        metrics = {
            "wall_s": (summary["wall_s"]["median"], "s"),
            "setup_s": (summary["setup_s"]["median"], "s"),
            "peak_rss_mb": (summary["peak_rss_mb"]["median"], "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "machine": machine_facts(),
        "commands": [{"argv": c["argv"], "sha256": c["sha256"], "bytes": c["bytes"]}
                     for c in good[0]["commands"]],
        "outputs_identical": len(digests) == 1, "restored": restored,
        "summary": summary, "setup_s_samples": setup, "passes": passes, "result": result,
    }
    return result, record


def print_summary(workload: str, seed: int, result: dict, record: dict, path: Path) -> None:
    summary = record["summary"]
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        if summary.get(name):
            s = summary[name]
            print(f"{workload} seed={seed} {name}: median {s['median']:.6g} {unit} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    f = summary["failed_share"]
    print(f"{workload} seed={seed} failed_share: {f['value']:.6g} ratio "
          f"({f['failed']} of {f['attempted']} commands)")
    if record["trace"]:
        for name, metric in result["metrics"].items():
            print(f"{workload} seed={seed} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"record: {path.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="work per command; tiny is for the self-test")
    args = parser.parse_args()
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the pass
    # process it is waiting for instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.scale)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(args.workload, args.seed, result, record, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

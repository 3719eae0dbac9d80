"""Run one pass of a workload in this fresh process; print its record as
one JSON line.

A pass imports ndtcache from the checkout's src/, then times every
command of the workload through ``ndtcache.cli.main`` with stdout
captured. With --trace 1 the commands run under the tracer, which is
restored before the outputs are checked. Outputs are checked after the
timed region, so the checks cost nothing in wall_s.

  python3 bench/one_pass.py --workload m1k3 --seed 1 --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import workloads
from tracer import Tracer


def run_commands(cli, argvs: list[list[str]]) -> list[tuple[int | None, str, str, float]]:
    """(exit code, stdout, stderr, wall seconds) of each command; the exit
    code is None when the command raised."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception:  # a crash is a failed command, not a failed pass
            code = None
            err.write(traceback.format_exc())
        results.append((code, out.getvalue(), err.getvalue(), perf_counter() - start))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="gzip JSON file for the spans")
    args = parser.parse_args()

    ndtcache = workloads.import_package()
    argvs = workloads.commands(args.workload, args.seed, args.scale)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        start = perf_counter()
        results = run_commands(ndtcache.cli, argvs)
        wall = perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "commands": [
            {
                "argv": argv,
                "exit": code,
                "seconds": seconds,
                "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
                "bytes": len(out.encode("utf-8")),
                "problems": workloads.check(argv, code, out) + ([err] if code is None else []),
            }
            for argv, (code, out, err, seconds) in zip(argvs, results)
        ],
    }
    if tracer:
        record["layers"] = tracer.summary()
        record["restored"] = tracer.restored()
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing of ndtcache for the benchmark's traced runs.

Each traced function is replaced at every name its callers look it up
by: the defining module and every ndtcache module that imported it by
name (``cli`` calls ``lower_bound_curve`` through its own binding,
``verify`` calls ``solve_precoders`` through ``ndtcache.verify``).
Methods are wrapped on their class and numpy's linalg functions on
``numpy.linalg``, which leaves the SVD inside ``pinv`` uncounted.

A wrapped call records one span ``(name index, start, end, parent span
index)``. Spans stay in memory until ``write_spans``. Self time is a
span's duration minus the durations of its direct children.
``restore`` puts every original object back.
"""
from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from time import perf_counter

# (layer name, module whose attribute is the public function)
FUNCTIONS = (
    ("cli.main", "ndtcache.cli", "main"),
    ("cli.run", "ndtcache.cli", "run"),
    ("cli.emit", "ndtcache.cli", "emit"),
    ("verify.verify_m1k3", "ndtcache.verify", "verify_m1k3"),
    ("verify.finite_snr_rates", "ndtcache.verify", "finite_snr_rates"),
    ("verify.verify_corner", "ndtcache.verify", "verify_corner"),
    ("verify.rank_with_gap", "ndtcache.verify", "rank_with_gap"),
    ("verify.draw_channels", "ndtcache.verify", "draw_channels"),
    ("scheme_m1k3.solve_precoders", "ndtcache.scheme_m1k3", "solve_precoders"),
    ("scheme_m1k3.effective_channel_matrix", "ndtcache.scheme_m1k3", "effective_channel_matrix"),
    ("scheme_m1k3.rn_cache_cancel", "ndtcache.scheme_m1k3", "rn_cache_cancel"),
    ("corner.miso_zf_plan", "ndtcache.corner", "miso_zf_plan"),
    ("corner.unicast_schedule", "ndtcache.corner", "unicast_schedule"),
    ("bounds.lower_bound_curve", "ndtcache.bounds", "lower_bound_curve"),
    ("bounds.achievable_catalog", "ndtcache.bounds", "achievable_catalog"),
    ("bounds.memory_sharing_envelope", "ndtcache.bounds", "memory_sharing_envelope"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("numpy.linalg.lstsq", "numpy.linalg", "lstsq"),
    ("numpy.linalg.pinv", "numpy.linalg", "pinv"),
    ("numpy.linalg.slogdet", "numpy.linalg", "slogdet"),
)
# (layer name, module, class, method): timed spans on the class
METHODS = (
    ("model.ChannelSet", "ndtcache.model", "ChannelSet", "__init__"),
    ("bounds.NdtCurve.evaluate", "ndtcache.bounds", "NdtCurve", "evaluate"),
)
# Counted only: a span per hash would cost more than the hash itself.
HASH_TARGET = ("ndtcache.scheme_m1k3", "SymbolId", "__hash__")

TIMED = tuple(name for name, *_ in FUNCTIONS + METHODS)
LINALG = tuple(name for name, module, _ in FUNCTIONS if module == "numpy.linalg")


class Tracer:
    """Wraps the traced functions of an imported ndtcache; one per pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.raised: Counter = Counter()
        self._hashes = [0]
        self.emit_bytes = 0
        self.curve_keys: set = set()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module_name, attr in FUNCTIONS:
            module = sys.modules.get(module_name)
            original = vars(module).get(attr) if module else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._timed(name, original)
            owners = [module] + [
                m for key, m in list(sys.modules.items())
                if (key == "ndtcache" or key.startswith("ndtcache.")) and m is not module
                and vars(m).get(attr) is original
            ]
            for owner in owners:
                self._patch(owner, attr, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(name)
                continue
            self._patch(cls, attr, self._timed(name, vars(cls)[attr]))
        module_name, cls_name, attr = HASH_TARGET
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        if cls is None or attr not in vars(cls):
            self.missing.append("scheme_m1k3.SymbolId.hash_calls")
        else:
            self._patch(cls, attr, self._counted(vars(cls)[attr]))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every binding this tracer replaced holds its original."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._patches)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _counted(self, original):
        hashes = self._hashes

        def wrapper(obj):
            hashes[0] += 1
            return original(obj)
        return wrapper

    def _timed(self, name: str, original):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[0]] = (index, start, end, parent)
                if stack:
                    stack[-1][1] += end - start
                self.self_s[name] += end - start - frame[1]
                self.calls[name] += 1
            if name == "cli.emit":
                self.emit_bytes += result
            elif name == "bounds.lower_bound_curve":
                self.curve_keys.add((args, tuple(sorted(kwargs.items()))))
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-pass raw counts and self times, keyed by layer name."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "raised": dict(self.raised),
            "hash_calls": self._hashes[0],
            "emit_bytes": self.emit_bytes,
            "distinct_curves": len(self.curve_keys),
            "missing": self.missing,
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"names": self.names, "spans": self.spans}, out)

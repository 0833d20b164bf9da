"""Spans and work counts around the program's public functions.

Tracing is done from outside the program: each traced function is replaced,
at every module binding that refers to it, by a wrapper that records a span
(name, start, end, parent span, op) and derives work counts from the call's
arguments, return value and exception.  Spans stay in memory; the runner
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from pathlib import Path


def _shift_l1(work, args, kwargs, result):
    # reduce_point returns (x0, p); |p|_1 is the translation the descent found.
    _, p = result
    work["shift_l1"] += int(abs(p.x) + abs(p.y))


def _box_terms(work, args, kwargs, result):
    work["box_terms"] += (2 * result + 1) ** 2


def _terms(work, args, kwargs, result):
    work["terms"] += len(result.support)


def _terms_scanned(work, args, kwargs, result):
    series = args[0] if args else kwargs["series"]
    work["terms_scanned"] += len(series.support)


# (module, function, work counter) for every traced public function.
TRACED = (
    ("lattice", "make_surface", None),
    ("lattice", "lagrange_reduce", None),
    ("lattice", "reduce_point", _shift_l1),
    ("theta", "theta_eval", None),
    ("theta", "theta_eval_bruteforce", None),
    ("kummer", "psi_eval", None),
    ("kummer", "injectivity_check", None),
    ("kummer", "build_quartic", None),
    ("kummer", "affine_pieces", None),
    ("kummer", "coplanarity_report", None),
    ("nonarch", "safe_cutoff", _box_terms),
    ("nonarch", "build_series", _terms),
    ("nonarch", "tropicalize_series", _terms_scanned),
    ("verify", "run_verification", None),
)

# Which end-to-end metric, on which workload, each layer should move.
TIES = {
    "lattice.make_surface": "embed-pool ops_per_s, peak_rss_mb",
    "lattice.lagrange_reduce": "embed-pool ops_per_s",
    "lattice.reduce_point": "embed-pool ops_per_s; shift_l1 tracks embed-pool op_tail_ms",
    "theta.theta_eval": "embed-pool op_p50_ms, verify-hex wall_s",
    "theta.theta_eval_bruteforce": "verify-hex wall_s; embed-pool untouched",
    "kummer.psi_eval": "embed-pool ops_per_s",
    "kummer.injectivity_check": "embed-pool ops_per_s",
    "kummer.build_quartic": "verify-hex wall_s",
    "kummer.affine_pieces": "verify-hex wall_s",
    "kummer.coplanarity_report": "verify-hex wall_s",
    "nonarch.safe_cutoff": "verify-hex wall_s; embed-pool untouched",
    "nonarch.build_series": "verify-hex wall_s; embed-pool untouched",
    "nonarch.tropicalize_series": "verify-hex wall_s; embed-pool untouched",
    "verify.run_verification": "verify-hex wall_s",
    "verify.check": "verify-hex wall_s",
    "cli": "cli-oneshot op_p50_ms only",
    "trace": "none: the cost of tracing itself",
}


class _Stat:
    __slots__ = ("calls", "errors", "total", "self_total", "work")

    def __init__(self):
        self.calls = 0
        self.errors: dict[str, int] = {}
        self.total = 0.0
        self.self_total = 0.0
        self.work: dict[str, int] = {}


class Tracer:
    """Records spans and per-function totals while installed."""

    def __init__(self, program):
        self.program = program
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.stats = {f"{m}.{f}": _Stat() for m, f, _ in TRACED}
        for (m, f, counter), stat in zip(TRACED, self.stats.values()):
            if counter is not None:
                counter_name = counter.__name__.lstrip("_")
                stat.work[counter_name] = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = [[0.0, -1]]

    def _wrap(self, name: str, fn, counter):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans)]
            spans.append(None)  # reserved so span ids follow call order
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                kind = type(exc).__name__
                stat.errors[kind] = stat.errors.get(kind, 0) + 1
                _close(stat, parent, frame, start, end)
                spans[frame[1]] = (name, parent[1], tracer.op, start, end, kind)
                raise
            end = clock()
            stack.pop()
            _close(stat, parent, frame, start, end)
            stat.calls += 1
            if counter is not None:
                counter(stat.work, args, kwargs, result)
            spans[frame[1]] = (name, parent[1], tracer.op, start, end, None)
            return result

        return traced

    def install(self) -> None:
        """Start a fresh trace: wrap each traced function at every binding."""
        self._reset()
        mods = list(self.program.modules.values())
        for m, f, counter in TRACED:
            original = getattr(getattr(self.program, m), f)
            wrapper = self._wrap(f"{m}.{f}", original, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def counts(self) -> dict:
        """Exact work done: calls, errors and work counters per function."""
        return {
            name: {
                "calls": s.calls,
                "errors": sum(s.errors.values()),
                "retries": s.errors.get("RadiusTooSmallError", 0),
                **s.work,
            }
            for name, s in self.stats.items()
        }

    def snapshot(self) -> dict:
        return {
            name: {"total": s.total, "self": s.self_total}
            for name, s in self.stats.items()
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "parent", "op", "start", "end", "error"]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _close(stat: _Stat, parent: list, frame: list, start: float, end: float) -> None:
    span = end - start
    stat.total += span
    stat.self_total += span - frame[0]
    parent[0] += span


def layer_metrics(counts: dict, times: dict, batches: int) -> dict:
    """Per-batch work and per-call times for every traced function.

    ``counts`` is one batch's exact work; ``times`` sums ``batches`` batches.
    """
    out = {}
    for name, c in counts.items():
        calls = c["calls"]
        t = times[name]
        per = t["total"] / (calls * batches) if calls else 0.0
        self_per = t["self"] / (calls * batches) if calls else 0.0
        out[f"{name}.us_per_call"] = per * 1e6
        out[f"{name}.self_us_per_call"] = self_per * 1e6
        out[f"{name}.ms_per_call"] = per * 1e3
        out[f"{name}.self_s"] = t["self"] / batches
        out[f"{name}.useful_frac"] = calls / (calls + c["errors"]) if calls else 0.0
        for key, value in c.items():
            out[f"{name}.{key}"] = value
    return out

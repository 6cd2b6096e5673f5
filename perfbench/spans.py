"""Outside-in tracing of provsig's layers.

The tracer replaces module attributes (``provsig.matcher.scan_all``
and so on) with timing wrappers, from the benchmark's own code; the
program is not edited.  Calls made through the module attribute, or
through the module's global name from inside the same module, are
seen.  A name missing on the commit under test is skipped and listed.
Every replaced attribute is put back by :meth:`Tracer.uninstall`.

A span is (id, name, start, end, parent id, invocation id).  Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time

ENTRY_POINTS = ("cli.sigscan_main", "cli.siggen_main")

# The layer functions that are timed.  Entry points are the roots of
# every span tree; their time not covered by a child span is cli.self_s.
LAYER_FUNCTIONS = (
    "cli._compile_engine", "cli.resolve_dynamic", "cli._md5_lookup",
    "sigdb.load_db", "sigdb.parse_sigfile", "sigdb.write_sigfile",
    "matcher.compile", "matcher.scan_all", "matcher.scan_once", "matcher.match_comment",
    "elf.parse_elf", "elf.parse_archive", "elf.parse_relocations",
    "siggen.sign_archive", "siggen.sign_object", "siggen.mask_text", "siggen.build_pattern",
    "symver.library_versions",
)


def _engine_states(engine) -> int:
    for attr in ("trie_states", "_fail", "_children"):
        value = getattr(engine, attr, None)
        if value is not None:
            return value if isinstance(value, int) else len(value)
    raise AttributeError("engine exposes no state count")


# Counters read off a call's arguments or result: name -> fn(args, result) -> {counter: n}
OBSERVERS = {
    "sigdb.parse_sigfile": lambda a, r: {"sigdb.parse_sigfile.signatures": len(r.signatures)},
    "matcher.compile": lambda a, r: {"matcher.compile.trie_states": _engine_states(r)},
    "matcher.scan_all": lambda a, r: {"matcher.scan_all.bytes": len(a[1]),
                                      "matcher.matches": len(r)},
    "elf.parse_elf": lambda a, r: {"elf.parse_elf.bytes": len(a[0])},
    "elf.parse_relocations": lambda a, r: {"elf.parse_relocations.entries": len(r)},
    "siggen.sign_object": lambda a, r: {"siggen.signatures": len(r[0]),
                                        "siggen.rejections": len(r[1])},
}


class Tracer:
    def __init__(self, names=ENTRY_POINTS + LAYER_FUNCTIONS) -> None:
        self.names = names
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.missing: list[str] = []
        self.invocation = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, self.invocation)
            if observe is not None:
                try:
                    for key, n in observe(args, result).items():
                        self.counters[key] = self.counters.get(key, 0) + n
                except Exception:  # a changed return type must not break the run
                    self.counters["trace.observer_errors"] = (
                        self.counters.get("trace.observer_errors", 0) + 1)
            return result
        return traced

    def install(self) -> None:
        for name in self.names:
            module_name, attr = name.split(".")
            try:
                module = importlib.import_module(f"provsig.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a bare call, measured here."""
    def noop(x):
        return x

    tracer = Tracer(names=())
    traced = tracer.wrap("calibration.noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        tracer.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def self_times(spans) -> dict[str, float]:
    """Per-name total span time minus the time covered by child spans."""
    covered = [0.0] * len(spans)
    for _sid, _name, start, end, parent, _inv in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for sid, name, start, end, _parent, _inv in spans:
        out[name] = out.get(name, 0.0) + (end - start) - covered[sid]
    return out


def layer_metrics(spans, counters, errors, missing, entry_wall_s: float,
                  per_call_cost: float, invocations: int) -> dict[str, float]:
    """Per-layer metrics, each per invocation of the entry point.

    ``entry_wall_s`` is the entry-point wall time the workload process
    measured itself; self times of every span plus cli.self_s should
    add up to it (trace.accounted_share).
    """
    per = 1.0 / max(invocations, 1)
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for _sid, name, start, end, _parent, _inv in spans:
        inclusive[name] = inclusive.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.s"] = inclusive.get(name, 0.0) * per
        metrics[f"{name}.self_s"] = selfs.get(name, 0.0) * per
        metrics[f"{name}.calls"] = calls.get(name, 0) * per
        metrics[f"{name}.errors"] = errors.get(name, 0) * per
    entry_self = sum(selfs.get(name, 0.0) for name in ENTRY_POINTS)
    metrics["cli.self_s"] = entry_self * per

    scanned = counters.get("matcher.scan_all.bytes", 0)
    scan_s = inclusive.get("matcher.scan_all", 0.0)
    metrics["matcher.scan_all.mb_per_s"] = scanned / 2 ** 20 / scan_s if scan_s else 0.0
    in_scan_all = {sid for sid, name, *_ in spans if name == "matcher.scan_all"}
    rescans = sum(1 for _sid, name, _s, _e, parent, _i in spans
                  if name == "matcher.scan_once" and parent in in_scan_all)
    metrics["matcher.scan_once.calls_per_scan_all"] = (
        rescans / len(in_scan_all) if in_scan_all else 0.0)
    metrics["matcher.matches"] = counters.get("matcher.matches", 0) * per
    metrics["matcher.compile.trie_states"] = counters.get("matcher.compile.trie_states", 0) * per
    metrics["sigdb.parse_sigfile.signatures"] = (
        counters.get("sigdb.parse_sigfile.signatures", 0) * per)
    metrics["elf.parse_elf.mb"] = counters.get("elf.parse_elf.bytes", 0) / 2 ** 20 * per
    metrics["elf.parse_relocations.entries"] = (
        counters.get("elf.parse_relocations.entries", 0) * per)
    metrics["siggen.signatures"] = counters.get("siggen.signatures", 0) * per
    metrics["siggen.rejections"] = counters.get("siggen.rejections", 0) * per

    traced_wall = sum(end - start for _sid, name, start, end, parent, _inv in spans
                      if parent < 0)
    metrics["trace.wall_s"] = traced_wall * per
    metrics["trace.accounted_share"] = (sum(selfs.values()) / entry_wall_s
                                        if entry_wall_s else 0.0)
    metrics["trace.overhead_share"] = (len(spans) * per_call_cost / traced_wall
                                       if traced_wall else 0.0)
    metrics["trace.missing_functions"] = float(len(missing))
    metrics["trace.observer_errors"] = counters.get("trace.observer_errors", 0) * per
    return metrics


def per_layer_names() -> list[str]:
    """Every metric :func:`layer_metrics` returns, in its order."""
    return list(layer_metrics([], {}, {}, [], 0.0, 0.0, 1))


def unit_of(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("share"):
        return "ratio"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


#!/usr/bin/env python3
"""provsig benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload batch-audit --seed 1 --seconds 30 --trace 0

Run from the root of a provsig checkout.  The corpus for (workload,
seed) is generated once into ``.perfbench/corpus/`` and reused.  Each
workload process is a fresh ``python3 perfbench/child.py`` that calls
``provsig.cli.sigscan_main`` or ``siggen_main`` in-process; processes
run one at a time, with no extra threads, up to the process boundary
nearest to ``--seconds`` (at least ``MIN_PROCESSES`` of them).

Workloads (why each exists is in BENCHMARK.json and README.md):

* ``batch-audit``: one ``sigscan --format json`` over a probe and 120
  stripped executables against a 10k-signature code-like database.
* ``cold-start``: one-binary audits against the 10k random-byte
  database, each in a fresh process with the database as generated.
* ``siggen-build``: ``siggen obj`` per archive, ``siggen comment`` and
  ``siggen lib``, all in one process per build.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  A human-readable summary
(with sample counts, unscaled values and ``failed_share``) comes
first; the last line of standard output is one JSON object.  Metric
definitions, the speed scaling and the layer map are in
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("batch-audit", "cold-start", "siggen-build")
MIN_PROCESSES = 3
# Seconds from the start of a run: no process is started that would
# likely end past RUN_LIMIT_S, and none may run past CHILD_DEADLINE_S.
RUN_LIMIT_S = 150.0
CHILD_DEADLINE_S = 170.0

# Seconds child.speed_sample() takes on a quiet 2-core Xeon VM.  Host
# speed here drifts by up to a factor of two within seconds, so every
# timed interval is scaled to this reference speed by the meter samples
# the workload process took during it (see at_speed).
REFERENCE_S = 0.00014
# An interval with fewer meter samples than this inside it is scaled by
# this many samples nearest to its middle.
MIN_WINDOW_SAMPLES = 8


def at_speed(result: dict, start: float, start_spent: float, end: float,
             end_spent: float) -> tuple[float, float]:
    """(raw, scaled) seconds of one interval of a workload process.

    Raw is the wall time without the meter's handler time.  Scaled is
    raw times REFERENCE_S times the mean of 1/sample over the interval:
    the samples are evenly spaced in time, so that mean is the
    interval's average speed."""
    raw = (end - start) - (end_spent - start_spent)
    samples = result["speed"]
    if not samples:  # a traced run: its times are not reported
        return raw, raw
    inside = [seconds for t, seconds in samples if start <= t <= end]
    if len(inside) < MIN_WINDOW_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [seconds for _t, seconds in nearest[:MIN_WINDOW_SAMPLES]]
    return raw, raw * REFERENCE_S * statistics.fmean(1 / seconds for seconds in inside)


END_TO_END = (("setup_s", "s"), ("audit_s", "s"), ("mb_per_s", "MB/s"),
              ("op_p50_s", "s"), ("op_p90_s", "s"), ("peak_rss_mb", "MB"))
# What each end-to-end metric is called in the workload's own terms.
ALIASES = {
    "batch-audit": {"mb_per_s": "scan_mb_per_s", "op_p50_s": "target_p50_s",
                    "op_p90_s": "target_p90_s"},
    "cold-start": {"mb_per_s": "audit_mb_per_s", "op_p50_s": "invocation_p50_s",
                   "op_p90_s": "invocation_p90_s"},
    "siggen-build": {"mb_per_s": "siggen_mb_per_s", "op_p50_s": "output_p50_s",
                     "op_p90_s": "output_p90_s"},
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def corpus_dir(root: Path, workload: str, seed: int) -> Path:
    base = root / ".perfbench" / "corpus"
    target = base / f"{workload}-s{seed}-{corpus.generator_hash()}"
    if not (target / "manifest.json").is_file():
        tmp = base / f".build-{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        corpus.build(workload, seed, tmp)
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    return target


class Run:
    """Accumulates one run's processes, failures and samples."""

    def __init__(self, root: Path, workload: str, cdir: Path, trace: bool,
                 deadline: float) -> None:
        self.root, self.workload, self.cdir, self.trace = root, workload, cdir, trace
        self.deadline = deadline
        self.manifest = json.loads((cdir / "manifest.json").read_text())
        self.work = root / ".perfbench" / "work" / workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
        self.raw: dict[str, list[float]] = {name: [] for name, _ in END_TO_END}
        self.results: list[dict] = []

    def _spawn(self, calls: list[dict]) -> dict | None:
        """Run one workload process; None when it produced no result."""
        spec = {"src": str(self.root / "src"), "calls": calls, "trace": self.trace}
        spec_path, result_path = self.work / "spec.json", self.work / "result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        env = {k: v for k, v in os.environ.items() if k != "PROVSIG_PATH"}
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                                   str(result_path)], cwd=self.cdir, env=env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            self.problems.append("workload process timed out")
            return None
        end = time.perf_counter()
        if proc.returncode != 0 or not result_path.is_file():
            self.problems.append(f"workload process exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            return None
        result = json.loads(result_path.read_text())
        # perf_counter is CLOCK_MONOTONIC, shared with the workload process
        result["spawned"], result["exited"] = start, end
        self.results.append(result)
        return result

    def _put(self, name: str, raw: list[float], scaled: list[float]) -> None:
        self.raw[name].extend(raw)
        self.samples[name].extend(scaled)

    def _audit(self, result: dict) -> None:
        """The process's time from spawn to exit, and its peak RSS."""
        raw, scaled = at_speed(result, result["spawned"], 0.0, result["exited"],
                               result["meter_spent"])
        self._put("audit_s", [raw], [scaled])
        self._put("peak_rss_mb", [result["peak_rss_mb"]], [result["peak_rss_mb"]])

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def sigscan(self) -> None:
        targets = self.manifest["targets"]
        db = self.work / "db"
        shutil.rmtree(db, ignore_errors=True)
        shutil.copytree(self.cdir / self.manifest["db"], db)  # every audit starts as generated
        argv = ["--db", str(db), "--search-path", self.manifest["libdir"], "--format", "json",
                *(t["path"] for t in targets)]
        result = self._spawn([{"entry": "sigscan", "argv": argv}])
        self.attempted += len(targets)
        call = result["calls"][0] if result else None
        if call is None or call["rc"] != 0 or call["traceback"]:
            why = f"sigscan rc={call['rc']} {call['traceback'] or ''}" if call else "no result"
            self.failed += len(targets)
            self.problems.append(why)
            return
        lines = [line for line in call["lines"] if line[1].strip()]
        for i, expected in enumerate(targets):
            if i >= len(lines):
                self._fail([f"{expected['path']}: no report"])
            else:
                problems = check.check_report(expected, lines[i][1])
                if problems:
                    self._fail(problems)
        if len(lines) != len(targets):
            self.problems.append(f"{len(lines)} report lines for {len(targets)} targets")
            return
        marks = [(call["start"], call["start_spent"])] + [(t, spent) for t, _, spent in lines]
        setup, *gaps = (at_speed(result, *a, *b) for a, b in zip(marks, marks[1:]))
        if self.workload == "cold-start":
            # The operation is the whole one-binary audit, as a CI gate
            # waits for it: a single short scan per process is too few
            # samples to time steadily.
            gaps = [at_speed(result, call["start"], call["start_spent"], call["end"],
                             call["end_spent"])]
        raw, scaled = [list(v) for v in zip(*gaps)]
        megabytes = sum(t["bytes"] for t in targets[1:]) / 2 ** 20
        self._put("setup_s", [setup[0]], [setup[1]])
        self._put("mb_per_s", [megabytes / sum(raw)], [megabytes / sum(scaled)])
        self._put("op_p50_s", raw, scaled)
        self._put("op_p90_s", raw, scaled)
        self._audit(result)

    def siggen(self) -> None:
        calls_spec = self.manifest["calls"]
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        calls = [{"entry": "siggen", "argv": [*c["argv"], "-o", str(self.work / c["output"])]}
                 for c in calls_spec]
        result = self._spawn(calls)
        self.attempted += len(calls_spec)
        if result is None:
            self.failed += len(calls_spec)
            return
        durations, scaled = [], []
        for spec, call in zip(calls_spec, result["calls"]):
            if call["rc"] != 0 or call["traceback"]:
                self._fail([f"siggen {spec['output']}: rc={call['rc']} "
                            f"{call['traceback'] or call['stderr'][-300:]}"])
            else:
                problems = check.check_sig(self.cdir / spec["expect"], self.work / spec["output"])
                if problems:
                    self._fail(problems)
            raw, at_reference = at_speed(result, call["start"], call["start_spent"],
                                         call["end"], call["end_spent"])
            durations.append(raw)
            scaled.append(at_reference)
        megabytes = sum(c["bytes"] for c in calls_spec[1:]) / 2 ** 20
        self._put("setup_s", durations[:1], scaled[:1])
        self._put("mb_per_s", [megabytes / sum(durations[1:])], [megabytes / sum(scaled[1:])])
        self._put("op_p50_s", durations[1:], scaled[1:])
        self._put("op_p90_s", durations[1:], scaled[1:])
        self._audit(result)

    def end_to_end(self) -> dict[str, tuple[float, float, int]]:
        """metric -> (speed-scaled value, raw value, sample count)."""
        out = {}
        for name, _unit in END_TO_END:
            if not self.samples[name]:
                continue
            q = 0.9 if name == "op_p90_s" else 0.5
            out[name] = (percentile(self.samples[name], q), percentile(self.raw[name], q),
                         len(self.samples[name]))
        return out

    def per_layer(self) -> dict[str, float]:
        merged, counters, errors, missing = [], {}, {}, set()
        entry_wall, cost, calls_before = 0.0, 0.0, 0
        for result in self.results:
            offset = len(merged)
            merged += [(sid + offset, name, start, end, parent + offset if parent >= 0 else -1,
                        inv + calls_before)
                       for sid, name, start, end, parent, inv in result["spans"]]
            calls_before += len(result["calls"])
            for key, n in result["counters"].items():
                counters[key] = counters.get(key, 0) + n
            for key, n in result["errors"].items():
                errors[key] = errors.get(key, 0) + n
            missing.update(result["missing"])
            entry_wall += sum(c["end"] - c["start"] for c in result["calls"])
            cost = max(cost, result["per_call_cost"])
        self.missing = sorted(missing)
        self.spans = merged
        return spans.layer_metrics(merged, counters, errors, self.missing, entry_wall, cost,
                                   len(self.results))


def main() -> int:
    parser = argparse.ArgumentParser(description="provsig benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    run_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "provsig" / "cli.py").is_file():
        print(f"perfbench: no provsig sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    cdir = corpus_dir(root, args.workload, args.seed)
    run = Run(root, args.workload, cdir, bool(args.trace), run_start + CHILD_DEADLINE_S)
    run.work.mkdir(parents=True, exist_ok=True)
    step = run.siggen if args.workload == "siggen-build" else run.sigscan
    start = time.perf_counter()
    processes = 0
    while True:
        before = time.perf_counter()
        step()
        processes += 1
        now = time.perf_counter()
        # end at the process boundary nearest to --seconds
        if processes >= MIN_PROCESSES and now + (now - before) / 2 - start >= args.seconds:
            break
        if now - run_start + (now - before) > RUN_LIMIT_S:
            break

    print(f"perfbench {args.workload} seed={args.seed} processes={processes} "
          f"trace={args.trace}")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    share = run.failed / run.attempted if run.attempted else 1.0
    print(f"  failed_share = {share} ({run.failed}/{run.attempted} operations)")
    if args.trace:
        metrics = run.per_layer()
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g}")
        if run.missing:
            print(f"  not on this commit: {', '.join(run.missing)}")
        out = root / ".perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"spans-{args.workload}-s{args.seed}.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "invocation"],
             "spans": run.spans}))
        result_metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                          for name, value in metrics.items()}
    else:
        measured = run.end_to_end()
        units = dict(END_TO_END)
        aliases = ALIASES[args.workload]
        for name, (value, raw, count) in measured.items():
            alias = f" ({aliases[name]})" if name in aliases else ""
            print(f"  {name}{alias} = {value:.6g} {units[name]}  n={count}  "
                  f"(unscaled {raw:.6g})")
        if len(measured) != len(END_TO_END):
            print("perfbench: no process produced usable timings", file=sys.stderr)
            return 1
        result_metrics = {name: {"value": value, "unit": units[name]}
                          for name, (value, _raw, _count) in measured.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: call provsig's entry points in-process and
record what the benchmark measures from outside.

    python3 child.py SPEC.json RESULT.json

SPEC holds ``src`` (where the ``provsig`` package lives), ``calls`` (a
list of {"entry": "sigscan"|"siggen", "argv": [...]}) and ``trace``.
Standard output is replaced by a clock that stamps every line when the
CLI writes it; standard error is captured.  RESULT gets, per call, the
return code, the entry and exit times, the stamped lines, the captured
stderr and any traceback, plus this process's peak RSS, machine-speed
samples and, when tracing, the spans and counters.

Machine speed.  This host's speed drifts by up to a factor of two
within seconds, so from start-up on a SIGALRM timer interrupts the
process every ``METER_PERIOD_S`` and times a fixed reference loop
(:func:`speed_sample`) from the signal handler: no extra thread or
process.  Each line stamp and call boundary also records the seconds
spent in the handler so far, so the benchmark takes them out of every
interval and scales the rest by the samples taken during it.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

METER_PERIOD_S = 0.01
_ROWS = [[(row * 7 + byte) & 7 for byte in range(256)] for row in range(8)]
_DATA = bytes(range(256)) * 32


def speed_sample() -> float:
    """Seconds one fixed pure-Python loop takes right now: a walk of
    list-indexed state rows over an 8 KB byte buffer, like provsig's
    trie scan.  It allocates nothing, so it never starts the garbage
    collector and is safe to run from a signal handler."""
    rows, data = _ROWS, _DATA
    start = time.perf_counter()
    state = 0
    for byte in data:
        state = rows[state][byte]
    return time.perf_counter() - start


class SpeedMeter:
    """Times :func:`speed_sample` from a SIGALRM handler every
    ``period`` seconds of wall time (never, for period 0); ``spent`` is
    the handler's total time so far."""

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        seconds = speed_sample()
        end = time.perf_counter()
        self.samples.append((end, seconds))
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.  VmHWM counts from
    exec only; ru_maxrss, the fallback where /proc is missing, also
    keeps the parent's RSS at fork, so it would vary with what the
    benchmark did before starting this process."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class LineClock(io.TextIOBase):
    """A stdout stand-in that records (time, line, meter time spent) as
    each line ends."""

    def __init__(self, meter) -> None:
        self.meter = meter
        self.lines: list[tuple[float, str, float]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now, spent = time.perf_counter(), self.meter.spent
        chunks = (self._partial + text).split("\n")
        self._partial = chunks.pop()
        self.lines.extend((now, chunk, spent) for chunk in chunks)
        return len(text)


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    # Started before provsig is imported, so start-up is sampled too.
    # Traced runs give per-layer numbers only; the meter would add its
    # handler to whichever span it interrupts.
    meter = SpeedMeter(0.0 if spec["trace"] else METER_PERIOD_S)
    meter.start()
    sys.path.insert(0, spec["src"])
    from provsig import cli

    tracer = None
    per_call_cost = 0.0
    if spec["trace"]:
        import spans
        per_call_cost = spans.wrapper_cost()
        tracer = spans.Tracer()
        tracer.install()

    calls = []
    real_out, real_err = sys.stdout, sys.stderr
    try:
        for number, call in enumerate(spec["calls"]):
            if tracer is not None:
                tracer.invocation = number
            entry = getattr(cli, f"{call['entry']}_main")
            out, err = LineClock(meter), io.StringIO()
            sys.stdout, sys.stderr = out, err
            rc, tb = None, None
            start, start_spent = time.perf_counter(), meter.spent
            try:
                rc = entry(call["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                tb = traceback.format_exc()
            finally:
                end, end_spent = time.perf_counter(), meter.spent
                sys.stdout, sys.stderr = real_out, real_err
            calls.append({"rc": rc, "start": start, "end": end, "start_spent": start_spent,
                          "end_spent": end_spent, "lines": out.lines,
                          "stderr": err.getvalue()[-4000:], "traceback": tb})
    finally:
        meter.stop()
        if tracer is not None:
            tracer.uninstall()

    result = {"calls": calls, "speed": meter.samples, "meter_spent": meter.spent,
              "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result.update(spans=tracer.spans, counters=tracer.counters, errors=tracer.errors,
                      missing=tracer.missing, per_call_cost=per_call_cost)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

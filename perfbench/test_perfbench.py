"""Tests of the benchmark itself (not part of the provsig suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import child  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from provsig import cli, elf, matcher, siggen  # noqa: E402

SCALE = 0.02


def _digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(corpus.BUILDERS))
def test_generator_gives_identical_bytes_for_one_seed(tmp_path, workload):
    first = corpus.build(workload, 7, tmp_path / "a", SCALE)
    second = corpus.build(workload, 7, tmp_path / "b", SCALE)
    other = corpus.build(workload, 8, tmp_path / "c", SCALE)
    assert first == second
    assert _digest_tree(tmp_path / "a") == _digest_tree(tmp_path / "b")
    assert _digest_tree(tmp_path / "a") != _digest_tree(tmp_path / "c")


def _run_siggen(call: dict, out: Path) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.siggen_main([*call["argv"], "-o", str(out)])


def test_sampling_oracle_agrees_with_siggen_on_seed_corpus(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    manifest = corpus.build("siggen-build", 1, root, SCALE)
    monkeypatch.chdir(root)
    for call in manifest["calls"]:
        out = tmp_path / Path(call["output"]).name
        assert _run_siggen(call, out) == 0
        assert check.check_sig(root / call["expect"], out) == []


def test_sampling_oracle_agrees_with_siggen_on_edge_sizes():
    rng = random.Random(5)
    sizes = [15, 16, 17, 254, 255, 256, 257, 258, 340, 341, 342, 1000, 4099]
    for n in sizes * 20:
        data = rng.randbytes(n)
        masked = set()
        for _ in range(rng.randrange(0, n // 3 + 1)):
            at = rng.randrange(n)
            masked.update(range(at, min(n, at + rng.choice((1, 4, 8, 40)))))
        section = elf.Section(name=".text", data=data, file_offset=0, flags=0)
        relocs = [elf.RelocationEntry(".text", i, 2, "", 1) for i in sorted(masked)]
        got = siggen.build_pattern(siggen.mask_text(section, relocs))
        want = oracle.build_pattern(data, masked)
        if hasattr(got, "elements"):
            assert (siggen.pattern_to_text(got), got.fixed_span) == want
        else:
            assert got.reason == want


def _reports(manifest: dict) -> list[str]:
    """Run sigscan over every target of a manifest, from its corpus root."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.sigscan_main(["--db", manifest["db"], "--search-path", manifest["libdir"],
                               "--format", "json", *(t["path"] for t in manifest["targets"])])
    assert rc == 0
    return buffer.getvalue().splitlines()


@pytest.mark.parametrize("workload", ["batch-audit", "cold-start"])
def test_expected_reports_match_sigscan(tmp_path, monkeypatch, workload):
    manifest = corpus.build(workload, 3, tmp_path / "corpus", SCALE)
    monkeypatch.chdir(tmp_path / "corpus")
    lines = _reports(manifest)
    assert len(lines) == len(manifest["targets"])
    for expected, line in zip(manifest["targets"], lines):
        assert check.check_report(expected, line) == []
    kinds = {f[1] for t in manifest["targets"] for f in t["dynlib"]}
    assert {"symver", "md5", "unknown"} <= kinds
    assert any(t["warnings"] for t in manifest["targets"])


def test_checker_flags_an_altered_report(tmp_path, monkeypatch):
    manifest = corpus.build("batch-audit", 3, tmp_path / "corpus", SCALE)
    monkeypatch.chdir(tmp_path / "corpus")
    lines = _reports(manifest)
    index = next(i for i, t in enumerate(manifest["targets"]) if t["hits"] and t["dynlib"])
    expected, report = manifest["targets"][index], json.loads(lines[index])
    assert check.check_report(expected, lines[index]) == []

    def altered(change) -> str:
        copy = json.loads(lines[index])
        change(copy)
        return json.dumps(copy)

    def bump_count(r):
        r["package_hits"][0]["count"] += 1

    def bump_bytes(r):
        r["package_hits"][0]["total_bytes"] -= 1

    def other_version(r):
        r["dynlib_findings"][0]["version"] += ".1"

    def drop_warnings(r):
        r["warnings"] = [] if expected["warnings"] else ["unresolved dynamic library: x.so"]

    for change in (bump_count, bump_bytes, other_version, drop_warnings):
        assert check.check_report(expected, altered(change)), change.__name__
    assert check.check_report(expected, "Traceback (most recent call last):")
    assert report["target"] == expected["path"]


def test_checker_flags_an_altered_sig(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    manifest = corpus.build("siggen-build", 2, root, SCALE)
    call = manifest["calls"][1]
    out = tmp_path / "out.sig"
    monkeypatch.chdir(root)
    assert _run_siggen(call, out) == 0
    assert check.check_sig(root / call["expect"], out) == []
    text = out.read_text()
    lines = text.splitlines()
    sig_line = next(i for i, line in enumerate(lines) if ":text:hex:" in line)
    flipped = lines[sig_line][:-2] + ("00" if not lines[sig_line].endswith("00") else "01")
    for bad in ("\n".join(lines[:sig_line] + [flipped] + lines[sig_line + 1:]) + "\n",
                "\n".join(lines[:sig_line] + lines[sig_line + 1:]) + "\n",
                text.replace(f"package {lines[1].split(' ', 1)[1]}", "package Other", 1)):
        out.write_text(bad)
        assert check.check_sig(root / call["expect"], out)


def test_tracing_skips_missing_names_and_restores_attributes(tmp_path, monkeypatch):
    modules = [cli, elf, matcher, siggen]
    before = [dict(vars(m)) for m in modules]
    names = ("cli.sigscan_main", "matcher.scan_all", "matcher.scan_once",
             "matcher.no_such_function", "nosuchmodule.fn", "elf.parse_elf")
    tracer = spans.Tracer(names=names)
    tracer.install()
    try:
        assert tracer.missing == ["matcher.no_such_function", "nosuchmodule.fn"]
        assert matcher.scan_all is not before[2]["scan_all"]
        manifest = corpus.build("cold-start", 4, tmp_path / "corpus", SCALE)
        monkeypatch.chdir(tmp_path / "corpus")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.sigscan_main(["--db", "db", "--format", "json",
                                     manifest["targets"][1]["path"]]) == 0
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before

    recorded = {s[1] for s in tracer.spans}
    assert {"cli.sigscan_main", "matcher.scan_all", "matcher.scan_once",
            "elf.parse_elf"} <= recorded
    roots = [s for s in tracer.spans if s[4] < 0]
    assert [s[1] for s in roots] == ["cli.sigscan_main"]
    total_self = sum(spans.self_times(tracer.spans).values())
    assert total_self == pytest.approx(roots[0][3] - roots[0][2], rel=1e-9)
    assert tracer.counters["matcher.matches"] >= 2


def test_per_layer_names_cover_every_metric_in_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, spans.unit_of(name)) for name in spans.per_layer_names()]


def test_speed_meter_samples_from_the_timer_and_stops():
    meter = child.SpeedMeter(period=0.005)
    meter.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        meter.stop()
    assert len(meter.samples) >= 5
    assert meter.spent >= sum(seconds for _t, seconds in meter.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_at_speed_takes_out_meter_time_and_scales_by_the_samples():
    slow = run.REFERENCE_S * 2
    result = {"speed": [(i / 100, slow) for i in range(100)]}
    raw, scaled = run.at_speed(result, 0.1, 0.01, 0.6, 0.03)
    assert raw == pytest.approx(0.48)
    assert scaled == pytest.approx(0.24)
    # a short interval is scaled by the samples nearest to it, not all
    result = {"speed": [(i / 100, run.REFERENCE_S if i < 50 else slow) for i in range(100)]}
    raw, scaled = run.at_speed(result, 0.2, 0.0, 0.201, 0.0)
    assert scaled == pytest.approx(raw)
    raw, scaled = run.at_speed(result, 0.8, 0.0, 0.801, 0.0)
    assert scaled == pytest.approx(raw / 2)

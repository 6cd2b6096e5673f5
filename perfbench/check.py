"""Output checker: compares what provsig produced with what the corpus
generator says it must produce.  Each function returns a list of
problems; an empty list means the operation succeeded."""

from __future__ import annotations

import json
from pathlib import Path

import oracle


def check_report(expected: dict, line: str) -> list[str]:
    """One ``sigscan --format json`` report line against its expected
    package hits, dynamic-library findings and unresolved-library
    warnings."""
    try:
        report = json.loads(line)
    except ValueError:
        return [f"not a JSON report: {line[:80]!r}"]
    problems = []
    if report.get("target") != expected["path"]:
        problems.append(f"target {report.get('target')!r} != {expected['path']!r}")
    hits = [[h.get("package"), h.get("version"), h.get("count"), h.get("total_bytes")]
            for h in report.get("package_hits", [])]
    if hits != expected["hits"]:
        problems.append(f"{expected['path']}: package hits {hits} != {expected['hits']}")
    dynlib = [[f.get("library"), f.get("method"), f.get("name"), f.get("version")]
              for f in report.get("dynlib_findings", [])]
    if dynlib != expected["dynlib"]:
        problems.append(f"{expected['path']}: dynlib {dynlib} != {expected['dynlib']}")
    unresolved = [w for w in report.get("warnings", []) if w.startswith("unresolved")]
    if unresolved != expected["warnings"]:
        problems.append(f"{expected['path']}: warnings {unresolved} != {expected['warnings']}")
    return problems


def check_sig(expected_path: Path, output_path: Path) -> list[str]:
    """A ``.sig`` written by siggen against the one the oracle rendered:
    same package, version and signatures (name, target, kind, payload)."""
    try:
        got = oracle.parse_sig(output_path.read_bytes())
    except (OSError, ValueError) as exc:
        return [f"{output_path.name}: unreadable: {exc}"]
    want = oracle.parse_sig(expected_path.read_bytes())
    problems = []
    for key in ("package", "version"):
        if got[key] != want[key]:
            problems.append(f"{output_path.name}: {key} {got[key]!r} != {want[key]!r}")
    got_sigs, want_sigs = got["signatures"], want["signatures"]
    for name in sorted(want_sigs.keys() - got_sigs.keys()):
        problems.append(f"{output_path.name}: missing {name}")
    for name in sorted(got_sigs.keys() - want_sigs.keys()):
        problems.append(f"{output_path.name}: unexpected {name}")
    for name in sorted(want_sigs.keys() & got_sigs.keys()):
        if got_sigs[name] != want_sigs[name]:
            problems.append(f"{output_path.name}: {name} differs")
    return problems

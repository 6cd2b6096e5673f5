"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and time budget and prints one
``criterion N (<label>): PASS`` line (visible with ``pytest -s``).
Run with::

    pytest -v -s tests/test_acceptance.py
"""

from __future__ import annotations

import gc
import json
import random
import time

from provsig import matcher
from provsig.cli import (
    PackageHit,
    ScanReport,
    format_report,
    siggen_main,
    sigscan_main,
)
from provsig.elf import get_section, parse_elf
from provsig.sigdb import (
    TARGET_TEXT,
    HexPattern,
    Signature,
    SignatureFile,
    load_db,
    parse_sigfile,
    pattern_to_text,
    write_sigfile,
)
from provsig.siggen import build_pattern, sign_shared_lib
from provsig.symver import library_versions

from elfwriter import (
    R_X86_64_64,
    R_X86_64_PC32,
    build_executable,
    build_object,
    build_shared_lib,
    build_shared_lib_layout,
)
from pattern_reference import ANY, NO_RELOCS, Gap, anchor, from_elements
from test_matcher import naive_scan_once, pairs

CALL_STUB_TEXT = bytes.fromhex(
    "554889e54883ec10bf0a000000e800000000488945f8c9c3")
CALL_STUB_PATTERN = ("55 48 89 e5 48 83 ec 10 bf 0a 00 00 00 e8 "
                     "?? ?? ?? ?? 48 89 45 f8 c9 c3")


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


# -----------------------------------------------------------------------------
# 1. A 24-byte function with one 4-byte relocation at offset 0xe must
#    produce exactly the known masked pattern.
# -----------------------------------------------------------------------------

def test_c1_masked_call_pattern_exact(tmp_path):
    start = time.perf_counter()
    obj = tmp_path / "stub.o"
    obj.write_bytes(build_object(
        CALL_STUB_TEXT, {".text": [(0x0E, R_X86_64_PC32, "malloc")]}))
    out = tmp_path / "stub.sig"
    assert siggen_main(["obj", str(obj), "--package", "P", "--version", "1",
                        "-o", str(out)]) == 0
    parsed = parse_sigfile(out.read_bytes())
    assert len(parsed.signatures) == 1
    pattern = parsed.signatures[0].pattern
    text = pattern_to_text(pattern)
    assert " ".join(text[i:i + 2] for i in range(0, len(text), 2)) == CALL_STUB_PATTERN
    assert text == "554889e54883ec10bf0a000000e8????????488945f8c9c3"
    took = _elapsed(start)
    assert took < 1.0
    print(f"criterion 1 (masked call pattern, byte-exact): PASS [{took:.2f}s]")


# -----------------------------------------------------------------------------
# 2. Truncation formula: for n >= 256 the three 85-byte samples are the
#    tails of the thirds of [0, n) and, with gaps l = n//3 - 85 and
#    m = l + n%3, tile the section tail exactly:
#    (n//3 - 85) + (85 + l + 85 + m + 85) == n.
# -----------------------------------------------------------------------------

def _independent_layout(n: int):
    third = n // 3
    segments = [(third - 85, third), (2 * third - 85, 2 * third), (n - 85, n)]
    gaps = [segments[1][0] - segments[0][1], segments[2][0] - segments[1][1]]
    return segments, gaps


def test_c2_truncation_formula_identity():
    start = time.perf_counter()
    rng = random.Random(0xC2)
    blob = rng.randbytes(10 ** 6)
    samples = list(range(256, 1300))  # dense over the boundary region
    while len(samples) < 8000:
        samples.append(int(256 * (10 ** 6 / 256) ** rng.random()))  # log-uniform
    while len(samples) < 10000:
        samples.append(rng.randrange(256, 10 ** 6 + 1))
    checked = 0
    for n in samples:
        third = n // 3
        gap_l = third - 85
        gap_m = gap_l + n % 3
        segments, gaps = _independent_layout(n)
        assert gaps == [gap_l, gap_m]
        assert (third - 85) + (85 + gap_l + 85 + gap_m + 85) == n
        assert segments[2][1] == n

        data = blob[:n]
        pattern = build_pattern(data, NO_RELOCS)
        assert isinstance(pattern, HexPattern)
        expected_runs = [data[a:b] for a, b in segments]
        expected_gaps = gaps
        if gap_l == 0:
            expected_runs = [expected_runs[0] + expected_runs[1], expected_runs[2]]
            expected_gaps = [gap_m]
        assert list(pattern.literals) == expected_runs
        assert [length for _, length in pattern.gaps] == expected_gaps
        assert pattern.span == 85 + gap_l + 85 + gap_m + 85
        checked += 1
    took = _elapsed(start)
    assert checked == 10000
    assert took < 5.0
    print(f"criterion 2 (truncation formula, {checked} samples): PASS [{took:.2f}s]")


# -----------------------------------------------------------------------------
# 3. The engine's find-all scan equals the naive sliding-window oracle
#    exactly, over >= 1000 randomized cases.
# -----------------------------------------------------------------------------

def _random_case(rng: random.Random, buf_size: int, n_patterns: int):
    buffer = bytearray(rng.randbytes(buf_size))
    patterns: list[HexPattern] = []
    for _ in range(n_patterns):
        length = rng.randrange(16, 96)
        if rng.random() < 0.6 and buf_size > length:
            at = rng.randrange(0, buf_size - length)
            body = list(buffer[at:at + length])
        else:
            body = [rng.randrange(256) for _ in range(length)]
        elements: list = list(body)
        for _ in range(rng.randrange(0, 3)):
            pos = rng.randrange(1, len(elements) - 1)
            elements[pos] = ANY
        if rng.random() < 0.3:
            cut = rng.randrange(4, len(elements) - 4)
            if isinstance(elements[cut - 1], int) and isinstance(elements[cut], int):
                elements.insert(cut, Gap(rng.randrange(1, 9)))
        patterns.append(from_elements(elements if anchor(elements) is not None else body))
    # plant extra occurrences so the match sets are non-trivial
    for pattern in patterns[: max(1, n_patterns // 3)]:
        if pattern.span < buf_size:
            at = rng.randrange(0, buf_size - pattern.span)
            for off, literal in zip(pattern.offsets, pattern.literals):
                buffer[at + off:at + off + len(literal)] = literal
    return bytes(buffer), patterns


def test_c3_matcher_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xC3)
    cases = ([(rng.randrange(64, 2048), rng.randrange(1, 17)) for _ in range(940)]
             + [(rng.randrange(2048, 16384), rng.randrange(4, 33)) for _ in range(48)]
             + [(rng.randrange(16384, 65536), rng.randrange(8, 49)) for _ in range(10)]
             + [(262144, 64), (262144, 32)])
    assert len(cases) >= 1000
    for buf_size, n_patterns in cases:
        buffer, patterns = _random_case(rng, buf_size, n_patterns)
        engine = matcher.compile(patterns)
        assert pairs(matcher.scan_all(engine, buffer)) == \
            naive_scan_once(patterns, buffer)
    took = _elapsed(start)
    assert took < 60.0
    print(f"criterion 3 (oracle equivalence, {len(cases)} cases): PASS [{took:.1f}s]")


# -----------------------------------------------------------------------------
# 4. Plant-and-detect: a synthetic corpus of 50 objects across 5
#    packages; 20 targets embedding 1-10 sections with relocation bytes
#    randomized scan back with exact counts, no misses, no false
#    positives.
# -----------------------------------------------------------------------------

def test_c4_end_to_end_plant_and_detect(tmp_path):
    start = time.perf_counter()
    rng = random.Random(0xC4)
    corpus_dir = tmp_path / "corpus"
    db_dir = tmp_path / "db"
    target_dir = tmp_path / "targets"
    for d in (corpus_dir, db_dir, target_dir):
        d.mkdir()

    # corpus: (package, object file name, section name) -> (bytes, masked positions)
    sections: dict[tuple[str, str, str], tuple[bytes, set[int]]] = {}
    packages = [(f"Package {i}", f"{i}.0") for i in range(5)]
    for pkg_idx, (package, version) in enumerate(packages):
        object_paths = []
        for obj_idx in range(10):
            texts = {}
            relocs = {}
            n_sections = rng.randrange(1, 3)
            for sect_idx in range(n_sections):
                name = ".text" if sect_idx == 0 else f".text.f{sect_idx}"
                bucket = rng.random()
                if bucket < 0.3:
                    length = rng.randrange(16, 100)
                elif bucket < 0.7:
                    length = rng.randrange(100, 256)
                else:
                    length = rng.randrange(256, 700)
                data = rng.randbytes(length)
                entries = []
                masked: set[int] = set()
                for _ in range(rng.randrange(0, 4)):
                    rtype, mask = rng.choice([(R_X86_64_PC32, 4), (R_X86_64_64, 8)])
                    if length <= mask:
                        continue
                    offset = rng.randrange(0, length - mask)
                    entries.append((offset, rtype, f"sym{rng.randrange(30)}"))
                    masked.update(range(offset, offset + mask))
                texts[name] = data
                if entries:
                    relocs[name] = entries
                sections[(package, f"p{pkg_idx}o{obj_idx}.o", name)] = (data, masked)
            path = corpus_dir / f"p{pkg_idx}o{obj_idx}.o"
            path.write_bytes(build_object(texts, relocs))
            object_paths.append(str(path))
        assert siggen_main(["obj", *object_paths, "--package", package,
                            "--version", version,
                            "-o", str(db_dir / f"pkg{pkg_idx}.sig")]) == 0

    db = load_db(db_dir)
    span_by_name = {sig.name: sig.pattern.span
                    for sf in db.files for sig in sf.signatures}

    # targets: embed snippets with their relocation bytes randomized
    catalog = sorted(sections.keys())
    target_paths = []
    expected: list[dict[tuple[str, str], list[int]]] = []
    for t in range(20):
        plants = [catalog[rng.randrange(len(catalog))]
                  for _ in range(rng.randrange(1, 11))]
        blobs: dict[str, bytearray] = {".text": bytearray()}
        if t % 3 == 0:
            blobs[".text.extra"] = bytearray()
        hits: dict[tuple[str, str], list[int]] = {}
        for key in plants:
            package, obj_name, sect_name = key
            data, masked = sections[key]
            planted = bytearray(data)
            for pos in masked:
                planted[pos] = rng.randrange(256)
            dest = blobs[".text.extra"] if (".text.extra" in blobs
                                            and rng.random() < 0.5) else blobs[".text"]
            dest.extend(rng.randbytes(rng.randrange(0, 40)))
            dest.extend(planted)
            sig_name = f"{obj_name}:{sect_name}"
            if sig_name in span_by_name:  # too-short sections never signed
                version = dict(packages)[package]
                entry = hits.setdefault((package, version), [0, 0])
                entry[0] += 1
                entry[1] += span_by_name[sig_name]
        for blob in blobs.values():
            blob.extend(rng.randbytes(rng.randrange(0, 40)))
        path = target_dir / f"target{t}"
        path.write_bytes(build_executable({k: bytes(v) for k, v in blobs.items()}))
        target_paths.append(str(path))
        expected.append(hits)

    import io
    from contextlib import redirect_stdout
    captured = io.StringIO()
    with redirect_stdout(captured):
        rc = sigscan_main(["--db", str(db_dir), "--no-dynamic",
                           "--format", "json", *target_paths])
    assert rc == 0
    lines = captured.getvalue().splitlines()
    assert len(lines) == 20
    misses = false_positives = 0
    for line, want in zip(lines, expected):
        doc = json.loads(line)
        got = {(h["package"], h["version"]): [h["count"], h["total_bytes"]]
               for h in doc["package_hits"]}
        assert got == want, f"{doc['target']}: got {got}, want {want}"
    took = _elapsed(start)
    assert took < 30.0
    total_plants = sum(sum(v[0] for v in e.values()) for e in expected)
    print(f"criterion 4 (plant-and-detect, 20 targets, {total_plants} plants, "
          f"0 misses, 0 false positives): PASS [{took:.1f}s]")


# -----------------------------------------------------------------------------
# 5. A library defining the chain GLIBC_2.0 .. GLIBC_2.10 reports
#    GLIBC 2.10 (numeric ordering, not textual).
# -----------------------------------------------------------------------------

def test_c5_symbol_versioning_highest():
    start = time.perf_counter()
    chain = [f"GLIBC_2.{minor}" for minor in range(11)]
    image = parse_elf(build_shared_lib(versions=chain, base_name="libc.so.6"))
    # ordering is numeric, not textual: "2.9" > "2.10" as text
    assert library_versions(image, ["GLIBC"]) == [("GLIBC", "2.10")]
    took = _elapsed(start)
    assert took < 1.0
    print(f"criterion 5 (symbol versioning, GLIBC 2.10): PASS [{took:.2f}s]")


# -----------------------------------------------------------------------------
# 6. Library checksum depends on .text alone: mutating every byte
#    outside .text leaves it unchanged; one .text byte changes it.
# -----------------------------------------------------------------------------

def test_c6_prelink_resilient_checksum():
    start = time.perf_counter()
    rng = random.Random(0xC6)
    text = rng.randbytes(96)
    layout = build_shared_lib_layout(
        text=text, versions=["GLIBC_2.4"], needed=["libm.so.6"],
        comment=b"vendor 1.0\x00", soname="libsample.so.1")
    baseline = sign_shared_lib(parse_elf(layout.data), "libsample.so.1")

    keep = set()
    for off, size in layout.protected:
        keep.update(range(off, off + size))
    text_off, text_size = layout.section_span[".text"]
    keep.update(range(text_off, text_off + text_size))
    mutated = bytearray(layout.data)
    flipped = 0
    for i in range(len(mutated)):
        if i not in keep:
            mutated[i] ^= 0xFF
            flipped += 1
    assert flipped > 0
    assert sign_shared_lib(parse_elf(bytes(mutated)), "libsample.so.1") == baseline

    poked = bytearray(layout.data)
    poked[text_off + 17] ^= 0x01
    changed = sign_shared_lib(parse_elf(bytes(poked)), "libsample.so.1")
    assert changed.digest != baseline.digest
    took = _elapsed(start)
    assert took < 1.0
    print(f"criterion 6 (prelink-resilient checksum, {flipped} bytes mutated): "
          f"PASS [{took:.2f}s]")


# -----------------------------------------------------------------------------
# 7. Report line format, byte-for-byte.
# -----------------------------------------------------------------------------

def test_c7_report_format_exact():
    report = ScanReport(target="hello",
                        package_hits=[PackageHit("Intel Compiler Suite", "12.0",
                                                 3, 6992)])
    text = format_report(report, "human")
    assert text.splitlines() == ["(3 times, 6992 bytes) Intel Compiler Suite 12.0"]
    assert text == "(3 times, 6992 bytes) Intel Compiler Suite 12.0\n"
    print("criterion 7 (report format, byte-exact): PASS")


# -----------------------------------------------------------------------------
# 8. Throughput: with a >= 10,000-signature database, scan time is
#    linear in buffer size (R^2 >= 0.9 over 1..32 MB) and 32 MB
#    finishes inside five minutes.
# -----------------------------------------------------------------------------

def test_c8_throughput_linearity(tmp_path):
    rng = random.Random(0xC8)
    signatures = []
    for i in range(10000):
        data = rng.randbytes(rng.randrange(300, 640))
        pattern = build_pattern(data, NO_RELOCS)
        assert isinstance(pattern, HexPattern)
        signatures.append(Signature(name=f"lib{i // 100}.a/o{i}.o:.text",
                                    target=TARGET_TEXT, pattern=pattern))
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    for chunk in range(10):
        sf = SignatureFile(package=f"Synth {chunk}", version="1.0",
                           signatures=tuple(signatures[chunk * 1000:(chunk + 1) * 1000]))
        write_sigfile(sf, db_dir / f"synth{chunk}.sig")
    db = load_db(db_dir)
    signature_count = sum(len(sf.signatures) for sf in db.files)
    assert signature_count >= 10000
    engine = matcher.compile([sig.pattern for sf in db.files for sig in sf.signatures])

    sizes_mb = [1, 2, 4, 8, 16, 32]
    matcher.scan_all(engine, rng.randbytes(1 << 18))  # warm-up
    timings = []
    for mb in sizes_mb:
        buffer = rng.randbytes(mb << 20)
        gc.disable()
        t0 = time.perf_counter()
        found = matcher.scan_all(engine, buffer)
        t1 = time.perf_counter()
        gc.enable()
        assert len(found) == 0
        timings.append(t1 - t0)

    xs, ys = sizes_mb, timings
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.9, f"R^2 {r_squared:.4f}, timings {timings}"
    assert timings[-1] < 300.0, f"32 MB took {timings[-1]:.1f}s"
    per_mb = ", ".join(f"{mb}MB {t:.2f}s" for mb, t in zip(sizes_mb, timings))
    print(f"criterion 8 (throughput, {signature_count} signatures, R^2 {r_squared:.4f}, "
          f"fit t = {intercept:.2f} + {slope:.2f}x): PASS [{per_mb}]")


# -----------------------------------------------------------------------------
# 9. Removing symbol tables (keeping .comment) changes no text or
#    comment match.
# -----------------------------------------------------------------------------

def test_c9_stripped_binary_equivalence(tmp_path):
    rng = random.Random(0xC9)
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    snippet = rng.randbytes(300)
    obj = tmp_path / "lib.o"
    obj.write_bytes(build_object(snippet, {".text": [(10, R_X86_64_PC32, "f")]}))
    assert siggen_main(["obj", str(obj), "--package", "LibPkg", "--version", "2",
                        "-o", str(db_dir / "lib.sig")]) == 0
    host = tmp_path / "host"
    host.write_bytes(build_executable(b"\x90" * 8,
                                      comment=b"CC vendor build 7.7\x00"))
    assert siggen_main(["comment", str(host), "--package", "CC", "--version", "7.7",
                        "-o", str(db_dir / "cc.sig")]) == 0

    planted = bytearray(snippet)
    for pos in range(10, 14):
        planted[pos] = rng.randrange(256)
    comment = b"CC vendor build 7.7\x00unrelated\x00"
    full = tmp_path / "full"
    stripped = tmp_path / "stripped"
    full.write_bytes(build_executable(bytes(planted), comment=comment,
                                      with_symtab=True))
    stripped.write_bytes(build_executable(bytes(planted), comment=comment,
                                          with_symtab=False))
    assert get_section(parse_elf(full.read_bytes()), ".symtab") is not None
    assert get_section(parse_elf(stripped.read_bytes()), ".symtab") is None

    import io
    from contextlib import redirect_stdout
    captured = io.StringIO()
    with redirect_stdout(captured):
        rc = sigscan_main(["--db", str(db_dir), "--no-dynamic", "--format", "json",
                           str(full), str(stripped)])
    assert rc == 0
    docs = [json.loads(line) for line in captured.getvalue().splitlines()]
    assert docs[0]["package_hits"] == docs[1]["package_hits"]
    assert {(h["package"], h["count"]) for h in docs[0]["package_hits"]} == \
        {("LibPkg", 1), ("CC", 1)}
    print("criterion 9 (stripped-binary equivalence): PASS")

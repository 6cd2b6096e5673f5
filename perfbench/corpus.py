"""Seeded corpus generator for the three benchmark workloads.

Everything here is a pure function of (workload, seed, scale): the
signature database text, the ELF targets, libraries and archives, and
the expected result of every operation.  Nothing is imported from
``provsig``; patterns come from :mod:`oracle`, files from :mod:`elfw`.

Code-like bytes imitate compiled x86-64: endbr64 and ``push rbp; mov
rbp,rsp`` prologues, rel32 call and RIP-relative sites (recorded as
relocations), short jumps, ``mov r32, imm32`` with seeded random
immediates, and int3/zero padding.  Every database signature keeps at
least ``MIN_RANDOM_LITERALS`` immediate bytes in its pattern, so filler
cannot contain it by chance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from pathlib import Path
from statistics import NormalDist

import elfw
import oracle

MIN_RANDOM_LITERALS = 8
# Symbol-version labels sigscan recognises by default (documented CLI
# behaviour); the expected dynlib findings follow this order.
LABELS = ("GLIBC", "GLIBCXX", "GCC", "GFORTRAN", "GOMP", "MX", "DAPL", "IBVERBS")

PACKAGES = ("GNU Compiler Collection", "Intel Compiler Suite", "Open MPI", "MVAPICH2",
            "ACML", "Intel MKL", "FFTW", "HDF5", "NetCDF", "PETSc", "ScaLAPACK",
            "Boost", "zlib", "OpenBLAS", "LAPACK", "PGI Compilers", "Cray LibSci",
            "GSL", "Trilinos", "SuperLU")

# (soname, {label: candidate versions}) for symbol-versioned libraries;
# FOO and CXXABI are not recognised labels, PRIVATE/PLUGIN are not numeric.
SYMVER_LIBS = (
    ("libc.so.6", {"GLIBC": ["2.2.5", "2.3", "2.3.4", "2.4", "2.9", "2.10", "2.17",
                             "2.28", "2.34", "PRIVATE"]}),
    ("libstdc++.so.6", {"GLIBCXX": ["3.4", "3.4.9", "3.4.11", "3.4.21", "3.4.29"],
                        "CXXABI": ["1.3", "1.3.11"]}),
    ("libgcc_s.so.1", {"GCC": ["3.0", "3.3", "4.2.0", "4.8.0", "7.0.0", "12.0.0"]}),
    ("libgfortran.so.5", {"GFORTRAN": ["8", "9", "10"], "GCC": ["4.2.0", "7.0.0"]}),
    ("libgomp.so.1", {"GOMP": ["1.0", "2.0", "4.0", "4.5", "5.0", "PLUGIN_1.0"]}),
    ("libibverbs.so.1", {"IBVERBS": ["1.0", "1.1", "1.8", "1.14"]}),
    ("libmx.so.1", {"MX": ["1.2", "1.2.9", "1.2.16"], "DAPL": ["2.0", "2.1"]}),
    ("libfoo-versioned.so.2", {"FOO": ["1.0", "1.1"]}),
)

_MOVS = (b"\x48\x89\x45", b"\x48\x8b\x45", b"\x89\x45", b"\x8b\x45", b"\x48\x8b\x7d")
_SMALL = (b"\x31\xc0", b"\x48\x85\xc0", b"\x90", b"\x48\x89\xc7", b"\x48\x89\xc6",
          b"\x85\xc0")
_PADS = (b"\xcc", b"\x00", b"\x90")
# DT_NEEDED mixes of batch-audit targets: (symbol-versioned, MD5-known,
# unknown, missing) library counts, 3 to 6 in all.
LIB_MIXES = ((1, 0, 1, 1), (2, 1, 0, 0), (1, 2, 1, 0), (2, 2, 1, 1), (1, 1, 0, 1), (2, 0, 1, 0))


def generator_hash() -> str:
    """Digest of the generator's own source: a corpus cached under an
    older generator is rebuilt."""
    here = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for name in ("corpus.py", "elfw.py", "oracle.py"):
        digest.update((here / name).read_bytes())
    return digest.hexdigest()[:12]


class Code:
    """Code-like byte streams from one seeded generator."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def function(self, size: int) -> tuple[bytearray, list[int], list[int]]:
        """One function of at least ``size`` bytes: (bytes with rel32
        sites zeroed, site offsets, offsets of imm32 fields)."""
        rng = self.rng
        rand, randrange, randbytes = rng.random, rng.randrange, rng.randbytes
        out = bytearray(b"\xf3\x0f\x1e\xfa" if rand() < 0.8 else b"")
        out += b"\x55\x48\x89\xe5"
        if rand() < 0.5:
            out += b"\x48\x83\xec" + bytes([16 * randrange(1, 8)])
        sites: list[int] = []
        imms: list[int] = []
        while len(out) < size - 2:
            x = rand()
            if x < 0.16:
                sites.append(len(out) + 1)
                out += b"\xe8\0\0\0\0"
            elif x < 0.22:
                sites.append(len(out) + 3)
                out += b"\x48\x8d\x3d\0\0\0\0"
            elif x < 0.40:
                imms.append(len(out) + 1)
                out.append(0xB8 + randrange(8))
                out += randbytes(4)
            elif x < 0.60:
                out += _MOVS[randrange(5)]
                out.append(0x100 - 8 * randrange(1, 16))
            elif x < 0.70:
                out.append((0x74, 0x75, 0xEB)[randrange(3)])
                out.append(randrange(2, 0x7F))
            else:
                out += _SMALL[randrange(6)]
        out += b"\xc9\xc3" if rand() < 0.6 else b"\x5d\xc3"
        out += _PADS[randrange(3)] * (-len(out) % 16)
        return out, sites, imms

    def section(self, size: int) -> tuple[bytes, list[int]]:
        """A library text section whose pattern carries enough random
        literals; returns (bytes, rel32 sites)."""
        while True:
            data, sites, imms = self.function(size)
            kept = oracle.sample_spans(len(data))
            literals = sum(4 for i in imms if any(lo <= i and i + 4 <= hi for lo, hi in kept))
            if literals >= MIN_RANDOM_LITERALS:
                return bytes(data), sites

    def link(self, data: bytes, sites: list[int]) -> bytes:
        """Fill every rel32 site with random bytes, as a linker would."""
        out = bytearray(data)
        for site in sites:
            out[site:site + 4] = self.rng.randbytes(4)
        return bytes(out)

    def tiny(self) -> tuple[bytes, list[int]]:
        """A section under 16 bytes (rejected by the pattern rule)."""
        body = bytes([0xB8 + self.rng.randrange(8)]) + self.rng.randbytes(4)
        return b"\xf3\x0f\x1e\xfa" + body + b"\xc3", []


def masked_set(sites: list[int]) -> set[int]:
    """Byte offsets a linker patches: four at every rel32 site."""
    return {s + k for s in sites for k in range(4)}


def skewed_sizes(total: int, count: int, sigma: float, floor: int) -> list[int]:
    """``count`` ascending sizes summing to about ``total``: log-normal
    quantiles, the same for every seed."""
    weights = [math.exp(sigma * NormalDist().inv_cdf((i + 0.5) / count)) for i in range(count)]
    scale = total / sum(weights)
    return [max(floor, int(w * scale)) for w in weights]


def _version(rng: random.Random) -> str:
    return f"{rng.randrange(1, 13)}.{rng.randrange(0, 10)}.{rng.randrange(0, 20)}"


def _version_key(version: str) -> tuple[int, ...]:
    return tuple(int(c) for c in version.split("."))


def _write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


# ---------------------------------------------------------------------------
# shared libraries on the search path
# ---------------------------------------------------------------------------

class LibPool:
    """Symbol-versioned, MD5-known, unknown and missing libraries.

    :meth:`expect` gives the dynlib findings and unresolved-library
    warnings sigscan should report for a list of DT_NEEDED entries.
    """

    def __init__(self, code: Code, rng: random.Random, root: Path, pool: list[bytes]) -> None:
        self.code, self.rng, self.root, self.pool = code, rng, root, pool
        self.findings: dict[str, list[tuple[str, str, str]]] = {}
        self.kinds: dict[str, list[str]] = {"symver": [], "md5": [], "unknown": [],
                                            "missing": []}

    def _text(self, size: int) -> bytes:
        parts, n = [], 0
        while n < size:
            parts.append(self.rng.choice(self.pool))
            n += len(parts[-1])
        return b"".join(parts)

    def add_symver(self) -> None:
        for soname, labels in SYMVER_LIBS:
            defs, found = [], []
            for label, versions in labels.items():
                chosen = sorted(self.rng.sample(versions, self.rng.randrange(1, len(versions) + 1)),
                                key=lambda v: self.rng.random())
                defs += [f"{label}_{v}" for v in chosen]
                numeric = [v for v in chosen if all(c.isdigit() for c in v.split("."))]
                if label in LABELS and numeric:
                    found.append((label, max(numeric, key=_version_key)))
            found.sort(key=lambda f: LABELS.index(f[0]))
            _write(self.root / soname, elfw.shared_lib(self._text(4096), soname, defs))
            if found:
                self.findings[soname] = [("symver", label, v) for label, v in found]
                self.kinds["symver"].append(soname)
            else:
                self.findings[soname] = [("unknown", "", "")]
                self.kinds["unknown"].append(soname)

    def add_md5(self, soname: str, package: str, version: str) -> str:
        """Write an unversioned library; return its MD5 record line."""
        text = self._text(self.rng.randrange(4096, 24576))
        _write(self.root / soname, elfw.shared_lib(text, soname, []))
        self.findings[soname] = [("md5", package, version)]
        self.kinds["md5"].append(soname)
        return oracle.md5_line(f"{soname}:.text", hashlib.md5(text).hexdigest(), len(text))

    def add_unknown(self, count: int) -> None:
        for i in range(count):
            soname = f"libvendor{i}.so.{self.rng.randrange(1, 4)}"
            _write(self.root / soname,
                   elfw.shared_lib(self._text(self.rng.randrange(4096, 16384)), soname, []))
            self.findings[soname] = [("unknown", "", "")]
            self.kinds["unknown"].append(soname)

    def add_missing(self, count: int) -> None:
        self.kinds["missing"] += [f"libmissing{i}.so.1" for i in range(count)]

    def expect(self, needed: list[str], libdir: str) -> tuple[list, list]:
        findings, warnings = [], []
        for soname in needed:
            if soname in self.findings:
                path = os.path.join(libdir, soname)
                findings += [[path, *f] for f in self.findings[soname]]
            else:
                warnings.append(f"unresolved dynamic library: {soname}")
        return findings, warnings


def _random_md5_lines(rng: random.Random, tag: str, count: int) -> list[str]:
    return [oracle.md5_line(f"lib{tag}{i}.so.{rng.randrange(1, 9)}:.text",
                            rng.randbytes(16).hex(), rng.randrange(1024, 1 << 20))
            for i in range(count)]


def _sort_hits(hits: dict) -> list:
    return sorted(([pkg, ver, c, b] for (pkg, ver), (c, b) in hits.items()),
                  key=lambda h: (-h[2], -h[3], h[0], h[1]))


def _probe(code: Code, comment: bytes) -> bytes:
    """The 64-byte probe executable, scanned first so setup is counted."""
    data, sites, _ = code.function(56)
    text = code.link(bytes(data[:64]).ljust(64, b"\xcc"), [s for s in sites if s + 4 <= 64])
    return elfw.executable(text, comment, [])


# ---------------------------------------------------------------------------
# batch-audit: code-like DB, many stripped executables
# ---------------------------------------------------------------------------

def build_batch_audit(root: Path, seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"batch-audit:{seed}")
    code = Code(rng)
    n_text = int(8960 * scale)
    n_targets = max(4, int(120 * scale))
    total_target_bytes = int(8 * 2 ** 20 * scale)

    pool = [code.link(bytes(d), s) for d, s, _ in
            (code.function(rng.randrange(48, 640)) for _ in range(3000 if scale >= 1 else 300))]
    libs = LibPool(code, rng, root / "lib", pool)
    libs.add_symver()
    libs.add_unknown(4)
    libs.add_missing(4)

    packages = []
    for p, name in enumerate(PACKAGES):
        version = _version(rng)
        comments = [f"GCC: (GNU) {_version(rng)} {name.split()[0]}-{rng.randbytes(5).hex()}",
                    f"{name}: {version} build {rng.randbytes(6).hex()}"]
        packages.append({"name": name, "version": version, "comments": comments,
                         "sections": [], "lines": []})
    for i in range(n_text):
        pkg = packages[rng.randrange(len(packages))]
        size = rng.randrange(16, 256) if rng.random() < 0.55 else int(256 * 6 ** rng.random())
        data, sites = code.section(size)
        pattern, span = oracle.build_pattern(data, masked_set(sites))
        name = f"lib{pkg['name'].split()[0].lower()}.a/o{i}.o:.text"
        pkg["lines"].append(oracle.hex_line(name, "text", pattern))
        pkg["sections"].append((data, sites, span))
    md5_total = int(1000 * scale)
    for p, pkg in enumerate(packages):
        for c, comment in enumerate(pkg["comments"]):
            pkg["lines"].append(oracle.hex_line(f"cc{p}.{c}:.comment.0", "comment",
                                                comment.encode("latin-1").hex()))
        own = []
        if p % 2 == 0:
            own.append(libs.add_md5(f"libpkg{p}.so.1", pkg["name"], pkg["version"]))
        pkg["lines"] += own + _random_md5_lines(rng, f"p{p}x", md5_total // len(packages) - len(own))
        rng.shuffle(pkg["lines"])
        _write(root / "db" / f"pkg{p:02d}.sig",
               oracle.render_sig(pkg["name"], pkg["version"], pkg["lines"]))

    probe_pkg = packages[0]
    targets = [{"path": "t/probe", "bytes": 0,
                "hits": [[probe_pkg["name"], probe_pkg["version"], 1,
                          len(probe_pkg["comments"][0])]],
                "dynlib": [], "warnings": []}]
    _write(root / "t" / "probe", _probe(code, probe_pkg["comments"][0].encode() + b"\0"))

    # Per-target shape (size, libraries of each kind, clean or not, linked
    # packages) is one fixed schedule for every seed; the seed shuffles it.
    sizes = skewed_sizes(total_target_bytes, n_targets, 1.0, 8192)
    specs = [(size, LIB_MIXES[i % len(LIB_MIXES)], i % 10 == 9, 1 + i % 3)
             for i, size in enumerate(sizes)]
    rng.shuffle(specs)
    for t, (size, mix, clean, n_linked) in enumerate(specs):
        linked = [] if clean else rng.sample(range(len(packages)), n_linked)
        hits: dict = {}
        plants: list[bytes] = []
        for _ in range(0 if clean else 1 + size // 65536):
            p = rng.choice(linked)
            data, sites, span = rng.choice(packages[p]["sections"])
            plants.append(code.link(data, sites))
            entry = hits.setdefault((packages[p]["name"], packages[p]["version"]), [0, 0])
            entry[0] += 1
            entry[1] += span
        chunks, n = [], 0
        while n < size:
            chunks.append(rng.choice(pool))
            n += len(chunks[-1])
        for plant in plants:
            chunks.insert(rng.randrange(len(chunks) + 1), plant)
        strings = [f"GCC: (Ubuntu {_version(rng)}-{rng.randrange(1, 9)}ubuntu1) {_version(rng)}"]
        for p in linked:
            comment = rng.choice(packages[p]["comments"])
            times = 2 if rng.random() < 0.3 else 1
            strings += [comment] * times
            entry = hits.setdefault((packages[p]["name"], packages[p]["version"]), [0, 0])
            entry[0] += times
            entry[1] += times * len(comment)
        rng.shuffle(strings)
        needed = [soname for kind, count in zip(("symver", "md5", "unknown", "missing"), mix)
                  for soname in rng.sample(libs.kinds[kind], count)]
        rng.shuffle(needed)
        findings, warnings = libs.expect(needed, "lib")
        text = b"".join(chunks)
        path = f"t/t{t:03d}"
        _write(root / path, elfw.executable(text, b"\0".join(s.encode() for s in strings) + b"\0",
                                            needed))
        targets.append({"path": path, "bytes": len(text), "hits": _sort_hits(hits),
                        "dynlib": findings, "warnings": warnings})
    return {"workload": "batch-audit", "db": "db", "libdir": "lib", "targets": targets}


# ---------------------------------------------------------------------------
# cold-start: criterion-8 random-byte DB, one small target per audit
# ---------------------------------------------------------------------------

def build_cold_start(root: Path, seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"cold-start:{seed}")
    code = Code(rng)
    n_text = int(10000 * scale)
    n_files = 10
    pool = [code.link(bytes(d), s) for d, s, _ in
            (code.function(rng.randrange(48, 640)) for _ in range(100))]
    libs = LibPool(code, rng, root / "lib", pool)
    libs.add_symver()
    libs.add_unknown(2)
    libs.add_missing(2)

    files = []
    for f in range(n_files):
        version = f"1.{f}"
        comment = f"Synth {f} {version} {rng.randbytes(6).hex()}"
        files.append({"name": f"Synth {f}", "version": version, "comment": comment,
                      "lines": [oracle.hex_line(f"synth{f}:.comment.0", "comment",
                                                comment.encode().hex())],
                      "sections": []})
    for i in range(n_text):
        f = files[i * n_files // n_text]
        data = rng.randbytes(rng.randrange(300, 640))
        pattern, span = oracle.build_pattern(data, set())
        f["lines"].append(oracle.hex_line(f"lib{i // 100}.a/o{i}.o:.text", "text", pattern))
        f["sections"].append((data, span))
    for f_idx, f in enumerate(files[:3]):
        f["lines"].append(libs.add_md5(f"libsynth{f_idx}.so.1", f["name"], f["version"]))
    for f_idx, f in enumerate(files):
        _write(root / "db" / f"synth{f_idx}.sig",
               oracle.render_sig(f["name"], f["version"], f["lines"]))

    first = files[0]
    probe = {"path": "t/probe", "bytes": 0,
             "hits": [[first["name"], first["version"], 1, len(first["comment"])]],
             "dynlib": [], "warnings": []}
    _write(root / "t" / "probe", _probe(code, first["comment"].encode() + b"\0"))

    size = int(2 * 2 ** 20 * max(scale, 0.05))
    text = bytearray(rng.randbytes(size))
    hits: dict = {}
    for _ in range(2):
        f = rng.choice(files)
        data, span = rng.choice(f["sections"])
        # plants never overlap: each goes into its own half of the buffer
        at = rng.randrange(0, size // 2 - len(data)) + (size // 2 if hits else 0)
        text[at:at + len(data)] = data
        entry = hits.setdefault((f["name"], f["version"]), [0, 0])
        entry[0] += 1
        entry[1] += span
    other = files[1]
    entry = hits.setdefault((other["name"], other["version"]), [0, 0])
    entry[0] += 1
    entry[1] += len(other["comment"])
    needed = (libs.kinds["symver"] + libs.kinds["md5"] + libs.kinds["unknown"]
              + libs.kinds["missing"])
    rng.shuffle(needed)
    findings, warnings = libs.expect(needed, "lib")
    _write(root / "t" / "target",
           elfw.executable(bytes(text), b"GCC: (GNU) 13.2.0\0" + other["comment"].encode() + b"\0",
                           needed))
    target = {"path": "t/target", "bytes": size, "hits": _sort_hits(hits),
              "dynlib": findings, "warnings": warnings}
    return {"workload": "cold-start", "db": "db", "libdir": "lib", "targets": [probe, target]}


# ---------------------------------------------------------------------------
# siggen-build: archives of relocatable objects, executables, libraries
# ---------------------------------------------------------------------------

def _object_sections(code: Code, rng: random.Random, budget: int) -> list:
    """Text sections of one object: short, whole and sampled sizes."""
    sections, n = [], 0
    while n < budget or not sections:
        kind = rng.random()
        if kind < 0.15:
            data, sites = code.tiny()
        else:
            size = rng.randrange(16, 256) if kind < 0.6 else int(256 * 24 ** rng.random())
            raw, sites, _ = code.function(size)
            data = bytes(raw)
        name = ".text" if not sections else f".text.fn{len(sections)}"
        sections.append((name, data, sites))
        n += len(data)
    return sections


def _expected_obj_lines(origin: str, sections: list) -> list[str]:
    lines = []
    for name, data, sites in sections:
        result = oracle.build_pattern(data, masked_set(sites))
        if isinstance(result, tuple):
            lines.append(oracle.hex_line(f"{origin}:{name}", "text", result[0]))
    return lines


def build_siggen(root: Path, seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"siggen-build:{seed}")
    code = Code(rng)
    calls = []

    probe_text, probe_sites, _ = code.function(60)
    probe_sections = [(".text", bytes(probe_text), probe_sites)]
    _write(root / "in" / "probe.o", elfw.relocatable(probe_sections))
    _write(root / "expect" / "probe.sig",
           oracle.render_sig("Probe", "0", _expected_obj_lines("probe.o", probe_sections)))
    calls.append({"argv": ["obj", "in/probe.o", "--package", "Probe", "--version", "0"],
                  "inputs": ["in/probe.o"], "output": "out/probe.sig",
                  "expect": "expect/probe.sig"})

    n_archives = 20
    # ELF32 archives are picked by size rank, so every seed has the same
    # sizes in ELF32 (slower per byte) and the same mix per output rank.
    sizes = [(size, 32 if rank % 7 == 3 else 64) for rank, size in
             enumerate(skewed_sizes(int(11 * 2 ** 20 * scale), n_archives, 0.8, 16384))]
    rng.shuffle(sizes)
    for a, (size, bits) in enumerate(sizes):
        members, lines, n = [], [], 0
        while n < size:
            idx = len(members)
            member = (f"unit{idx}.o" if rng.random() < 0.7
                      else f"{PACKAGES[a].split()[0].lower()}_module_{idx}.o")
            sections = _object_sections(code, rng,
                                        max(256, min(rng.randrange(512, 16384), size - n)))
            blob = elfw.relocatable(sections, bits=bits)
            members.append((member, blob))
            lines += _expected_obj_lines(f"lib{a:02d}.a/{member}", sections)
            n += len(blob)
        path = f"in/lib{a:02d}.a"
        _write(root / path, elfw.archive(members))
        package, version = PACKAGES[a], _version(rng)
        _write(root / "expect" / f"a{a:02d}.sig", oracle.render_sig(package, version, lines))
        calls.append({"argv": ["obj", path, "--package", package, "--version", version],
                      "inputs": [path], "output": f"out/a{a:02d}.sig",
                      "expect": f"expect/a{a:02d}.sig"})

    shared = [f"Compiler {v} {rng.randbytes(4).hex()}" for v in range(4)]
    exe_paths, lines, seen_patterns = [], [], set()
    for e in range(12):
        strings = rng.sample(shared, 2) + [f"Tool {e}.{rng.randrange(9)} {rng.randbytes(3).hex()}"]
        strings += [strings[0], "ab"]  # an in-file repeat and a too-short string
        rng.shuffle(strings)
        path = f"in/cc{e:02d}"
        data, sites, _ = code.function(rng.randrange(256, 2048))
        _write(root / path, elfw.executable(code.link(bytes(data), sites),
                                            b"\0".join(s.encode() for s in strings) + b"\0", []))
        exe_paths.append(path)
        index, seen = 0, set()
        for s in strings:
            if s in seen:
                continue
            seen.add(s)
            if len(s) < 4:
                continue
            if s not in seen_patterns:
                seen_patterns.add(s)
                lines.append(oracle.hex_line(f"cc{e:02d}:.comment.{index}", "comment",
                                             s.encode().hex()))
            index += 1
    _write(root / "expect" / "comment.sig", oracle.render_sig("Vendor CC", "9.2", lines))
    calls.append({"argv": ["comment", *exe_paths, "--package", "Vendor CC", "--version", "9.2"],
                  "inputs": exe_paths, "output": "out/comment.sig",
                  "expect": "expect/comment.sig"})

    lib_paths, lines = [], []
    for i in range(12):
        soname = f"libsolver{i}.so.{rng.randrange(1, 5)}"
        parts, n = [], 0
        while n < 8192:
            data, sites, _ = code.function(rng.randrange(64, 1024))
            parts.append(code.link(bytes(data), sites))
            n += len(parts[-1])
        text = b"".join(parts)
        path = f"in/{soname}"
        _write(root / path, elfw.shared_lib(text, soname, []))
        lib_paths.append(path)
        lines.append(oracle.md5_line(f"{soname}:.text", hashlib.md5(text).hexdigest(), len(text)))
    _write(root / "expect" / "lib.sig", oracle.render_sig("Solver Runtime", "4.4.0", lines))
    calls.append({"argv": ["lib", *lib_paths, "--package", "Solver Runtime", "--version",
                           "4.4.0"], "inputs": lib_paths, "output": "out/lib.sig",
                  "expect": "expect/lib.sig"})
    for call in calls:
        call["bytes"] = sum((root / p).stat().st_size for p in call["inputs"])
    return {"workload": "siggen-build", "calls": calls}


BUILDERS = {"batch-audit": build_batch_audit, "cold-start": build_cold_start,
            "siggen-build": build_siggen}


def build(workload: str, seed: int, root: Path, scale: float = 1.0) -> dict:
    """Generate the corpus into ``root`` (which must not exist yet) and
    return its manifest, also written to ``root/manifest.json``."""
    root.mkdir(parents=True)
    manifest = BUILDERS[workload](root, seed, scale)
    (root / "manifest.json").write_text(json.dumps(manifest))
    return manifest

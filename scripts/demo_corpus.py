#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus.

Fabricates two "library" packages and a versioned shared library,
builds a signature database with siggen, assembles a target binary that
embeds some of the library code (with its relocation bytes randomized,
as a linker would), and scans it with sigscan.

    python3 scripts/demo_corpus.py [workdir]

Exits with the first non-zero status of a siggen step, else with
sigscan's status.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

_repo = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_repo / "src"))
sys.path.insert(0, str(_repo / "tests"))  # reuse the synthetic ELF writer

from elfwriter import (  # noqa: E402
    R_X86_64_PC32,
    build_archive,
    build_executable,
    build_object,
    build_shared_lib,
)
from provsig.cli import siggen_main, sigscan_main  # noqa: E402


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    workdir.mkdir(parents=True, exist_ok=True)
    db = workdir / "db"
    libs = workdir / "libs"
    db.mkdir(exist_ok=True)
    libs.mkdir(exist_ok=True)
    rng = random.Random(1)

    # package one: an archive of three objects with relocations
    sections = []
    members = []
    for i in range(3):
        data = rng.randbytes(rng.randrange(64, 400))
        reloc_at = rng.randrange(0, len(data) - 4)
        members.append((f"unit{i}.o", build_object(
            data, {".text": [(reloc_at, R_X86_64_PC32, "callee")]})))
        sections.append((data, range(reloc_at, reloc_at + 4)))
    archive = workdir / "libdemo.a"
    archive.write_bytes(build_archive(members))
    status = siggen_main(["obj", str(archive), "--package", "Demo Numeric Library",
                          "--version", "3.1", "-o", str(db / "demo-numeric.sig")])
    if status:
        return status

    # package two: a compiler identified by its .comment string
    host = workdir / "cc-sample"
    host.write_bytes(build_executable(b"\x90" * 16,
                                      comment=b"DemoCC: release 9.2.0\x00"))
    status = siggen_main(["comment", str(host), "--package", "DemoCC", "--version", "9.2",
                          "-o", str(db / "democc.sig")])
    if status:
        return status

    # a versioned shared library on the search path
    (libs / "libdemo.so.1").write_bytes(build_shared_lib(
        text=rng.randbytes(128),
        versions=["GLIBC_2.0", "GLIBC_2.4", "GLIBC_2.10"],
        base_name="libdemo.so.1"))

    # the "user binary": two library units statically linked in, wearing
    # the compiler's comment, depending on the shared library
    text = bytearray(rng.randbytes(24))
    for data, masked in sections[:2]:
        planted = bytearray(data)
        for pos in masked:
            planted[pos] = rng.randrange(256)  # linker-assigned address
        text += planted + rng.randbytes(16)
    target = workdir / "user-binary"
    target.write_bytes(build_executable(
        bytes(text), comment=b"DemoCC: release 9.2.0\x00",
        needed=["libdemo.so.1", "libabsent.so"]))

    print(f"workdir: {workdir}\n")
    print(f"$ sigscan --db {db} --search-path {libs} {target}")
    return sigscan_main(["--db", str(db), "--search-path", str(libs), str(target)])


if __name__ == "__main__":
    sys.exit(main())

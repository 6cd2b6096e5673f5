"""sigscan against the host toolchain.

* A gcc-built and a g++-built hello resolve their C and C++ runtimes
  through symbol versioning.  The expected versions are worked out
  independently of provsig, from the "Version definitions" block
  ``objdump -p`` prints for each library.  Skipped when gcc, g++ or
  objdump is missing, or when the compiler does not know where its C
  library lives.
* A database signed from the host's static C library (``siggen obj``
  over ``libc.a``) finds that library in a C hello linked with
  ``-static``, at ``-O0`` and at ``-O2``.  Skipped when gcc or
  ``libc.a`` is missing.
* A database signed from the host's C, C++ and compiler runtime
  archives (``libc.a``, ``libgcc.a``, ``libgcc_eh.a``, ``libstdc++.a``)
  finds both the C and the C++ library in a C++ program linked with
  ``-static``.  Many of its signatures share a key.  Skipped when g++ or
  an archive is missing.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess

import pytest

from provsig import matcher, sigdb, siggen
from provsig.cli import siggen_main, sigscan_main


def _missing(*tools: str):
    return pytest.mark.skipif(any(shutil.which(tool) is None for tool in tools),
                              reason=f"one of {', '.join(tools)} not installed")


HELLO_C = '#include <stdio.h>\nint main(void) { puts("hello"); return 0; }\n'
HELLO_CXX = '#include <iostream>\nint main() { std::cout << "hello" << std::endl; }\n'
ARGS_CXX = """\
#include <iostream>
#include <string>
#include <vector>
int main(int argc, char **argv) {
    std::vector<std::string> args(argv, argv + argc);
    for (const std::string &arg : args)
        std::cout << arg << '\\n';
    return 0;
}
"""

# "2 0x00 0x09691a75 GLIBC_2.2.5": index, flags, hash, name
_VERDEF_ROW = re.compile(r"^\d+ 0x([0-9a-f]+) 0x[0-9a-f]+ (\S+)$")


def _library_dir(compiler: str, soname: str) -> str:
    path = subprocess.run([compiler, f"-print-file-name={soname}"], check=True,
                          capture_output=True, text=True).stdout.strip()
    if os.sep not in path:
        pytest.skip(f"{compiler} does not know where {soname} lives")
    return os.path.dirname(path)


def _archive(compiler: str, name: str) -> str:
    """The path of the static archive ``name`` the compiler links."""
    path = subprocess.run([compiler, f"-print-file-name={name}"], check=True,
                          capture_output=True, text=True).stdout.strip()
    if not (os.path.isabs(path) and os.path.isfile(path)):  # the compiler echoes a bare name
        pytest.skip(f"{compiler} has no {name}")
    return path


def _reported(lines: list[str], package: str) -> bool:
    """Whether a report's lines hold a package hit line for ``package``."""
    return any(line.startswith("(") and line.endswith(f") {package}") for line in lines)


def _objdump_highest(library: str, label: str) -> str:
    """The numerically highest ``label`` version among the non-base
    version definitions objdump lists for ``library``."""
    dump = subprocess.run(["objdump", "-p", library], check=True,
                          capture_output=True, text=True).stdout
    block = dump.split("Version definitions:\n", 1)[1].split("\n\n", 1)[0]
    versions = []
    for line in block.splitlines():
        row = _VERDEF_ROW.match(line)
        if row is None or int(row.group(1), 16) & 1:  # parent line or base row
            continue
        found = re.fullmatch(re.escape(label) + r"_([0-9]+(?:\.[0-9]+)*)", row.group(2))
        if found:
            versions.append(found.group(1))
    assert versions, f"objdump lists no {label} versions for {library}"
    return max(versions, key=lambda v: tuple(map(int, v.split("."))))


@_missing("gcc", "g++", "objdump")
def test_gcc_and_gxx_runtimes_reported_by_symbol_version(tmp_path, capsys):
    search_paths = [_library_dir("gcc", "libc.so.6")]
    cxx_dir = _library_dir("g++", "libstdc++.so.6")
    if cxx_dir not in search_paths:
        search_paths.append(cxx_dir)

    (tmp_path / "hello.c").write_text(HELLO_C)
    (tmp_path / "hello.cc").write_text(HELLO_CXX)
    hello_c, hello_cxx = tmp_path / "hello-c", tmp_path / "hello-cxx"
    for compiler, source, binary in (("gcc", "hello.c", hello_c),
                                     ("g++", "hello.cc", hello_cxx)):
        subprocess.run([compiler, "-O2", "-o", str(binary), str(tmp_path / source)],
                       check=True, capture_output=True)

    db = tmp_path / "db"
    db.mkdir()
    assert siggen_main(["comment", str(hello_c), "--package", "host", "--version", "cc",
                        "-o", str(db / "host.sig")]) == 0
    capsys.readouterr()

    def expected(soname: str, label: str) -> str:
        library = next(os.path.join(d, soname) for d in search_paths
                       if os.path.isfile(os.path.join(d, soname)))
        return f"{library}: {label} {_objdump_highest(library, label)} [symver]"

    search_args = [arg for d in search_paths for arg in ("--search-path", d)]
    for binary, soname, label in ((hello_c, "libc.so.6", "GLIBC"),
                                  (hello_cxx, "libstdc++.so.6", "GLIBCXX")):
        assert sigscan_main(["--db", str(db), *search_args, str(binary)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert expected(soname, label) in lines, lines


@_missing("gcc")
def test_static_hello_reports_signed_libc_archive(tmp_path, capsys):
    archive = _archive("gcc", "libc.a")
    db = tmp_path / "db"
    db.mkdir()
    assert siggen_main(["obj", archive, "--package", "host libc", "--version", "static",
                        "-o", str(db / "libc.sig")]) == 0
    (tmp_path / "hello.c").write_text(HELLO_C)
    for level in ("-O0", "-O2"):
        binary = tmp_path / f"hello{level}"
        subprocess.run(["gcc", level, "-static", "-o", str(binary), str(tmp_path / "hello.c")],
                       check=True, capture_output=True)
        capsys.readouterr()
        assert sigscan_main(["--db", str(db), "--no-dynamic", str(binary)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert _reported(lines, "host libc static"), (level, lines)


@_missing("g++")
def test_static_cxx_program_reports_signed_cxx_and_c_archives(tmp_path, capsys):
    archives = {name: _archive("g++", name)
                for name in ("libc.a", "libgcc.a", "libgcc_eh.a", "libstdc++.a")}
    db = tmp_path / "db"
    db.mkdir()
    for name, archive in archives.items():
        assert siggen_main(["obj", archive, "--package", f"host {name[:-2]}",
                            "--version", "static", "-o", str(db / f"{name}.sig")]) == 0
    engine = matcher.compile([sig.pattern for _, sig, _ in sigdb.load_db(db).iter_signatures()
                              if sig.target == siggen.TARGET_TEXT])
    assert len({key for key, _ in engine.keys}) < len(engine.keys)
    (tmp_path / "args.cc").write_text(ARGS_CXX)
    binary = tmp_path / "args"
    subprocess.run(["g++", "-O2", "-static", "-o", str(binary), str(tmp_path / "args.cc")],
                   check=True, capture_output=True)
    capsys.readouterr()
    assert sigscan_main(["--db", str(db), "--no-dynamic", str(binary)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _reported(lines, "host libstdc++ static"), lines
    assert _reported(lines, "host libc static"), lines

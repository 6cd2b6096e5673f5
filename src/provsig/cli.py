"""Command-line tools.

``siggen`` builds annotated signature files from compiler/library
inputs; ``sigscan`` scans program binaries against a signature database
and reports, per package, how many signatures matched and how many
bytes they covered:

    (3 times, 6992 bytes) Intel Compiler Suite 12.0
    (2 times, 200 bytes) GCC 4.4.3

Dynamic dependencies are resolved internally against ``--search-path``
directories plus the PROVSIG_PATH environment variable; the scanner
never executes loader code on the inputs it audits.

``sigscan`` reads only the bytes a report uses.  A target's headers are
read and checked whole, then, from the file kept open, its ``.comment``
whole, its ``.dynamic`` and the string table that section links only
when libraries are resolved, and each code section in windows of
:data:`provsig.elf.WINDOW` bytes plus the text engine's longest span
less one (:func:`provsig.matcher.iter_windowed_matches`): a match
counts in the window where it starts, and a database with a long span
widens each window by it.  A library gives its ``.gnu.version_d`` and
that section's string table first, and its ``.text``, hashed a window
at a time, only when no known label is found.  ``siggen`` reads every
section body of its inputs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

from provsig import elf, matcher, sigdb, siggen, symver
from provsig.elf import MalformedArchive, MalformedElf, UnsupportedElf

ENV_SEARCH_PATH = "PROVSIG_PATH"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2

METHOD_SYMVER = "symver"
METHOD_MD5 = "md5"
METHOD_UNKNOWN = "unknown"


class PackageHit(NamedTuple):
    package: str
    version: str
    count: int
    total_bytes: int


class DynlibFinding(NamedTuple):
    library: str
    method: str  # symver | md5 | unknown
    name: str    # version label or package name; empty when unknown
    version: str


class ScanReport(NamedTuple):
    target: str
    package_hits: tuple[PackageHit, ...] = ()
    dynlib_findings: tuple[DynlibFinding, ...] = ()
    warnings: tuple[str, ...] = ()


def format_report(report: ScanReport, fmt: str) -> str:
    """Render one target's report as human-readable lines or one JSON
    document, ending with a line break either way."""
    if fmt == "json":
        return json.dumps({"target": report.target,
                           "package_hits": [h._asdict() for h in report.package_hits],
                           "dynlib_findings": [f._asdict() for f in report.dynlib_findings],
                           "warnings": report.warnings}) + "\n"
    lines = [f"({h.count} times, {h.total_bytes} bytes) {h.package} {h.version}"
             for h in report.package_hits]
    for finding in report.dynlib_findings:
        if finding.method == METHOD_UNKNOWN:
            lines.append(f"{finding.library}: unknown")
        else:
            lines.append(f"{finding.library}: {finding.name} {finding.version} "
                         f"[{finding.method}]")
    if not lines:
        lines.append("no matches")
    return "\n".join(lines) + "\n"


def resolve_dynamic(sonames, search_paths) -> list[tuple[str, str | None]]:
    """Resolve each soname against the ordered search paths; first hit
    wins, symlinks are followed, misses are recorded as None.

    A soname comes from the target, which is untrusted: one that is
    empty, ``.`` or ``..``, or that contains ``/``, is not looked up and
    is recorded as a miss, so no name reaches a file outside the search
    directories by path.
    """
    resolved: list[tuple[str, str | None]] = []
    for soname in sonames:
        found = None
        if soname not in ("", ".", "..") and "/" not in soname:
            for directory in search_paths:
                candidate = os.path.join(directory, soname)
                if os.path.isfile(candidate):
                    found = candidate
                    break
        resolved.append((soname, found))
    return resolved


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception (exit code 1)."""

    def error(self, message):
        raise _UsageError(message)


def _err(message: str) -> None:
    print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# siggen
# --------------------------------------------------------------------------

# each parser is built on its tool's first call in a process and reused:
# argparse keeps nothing from one parse_args call to the next
@functools.cache
def _siggen_parser() -> _Parser:
    parser = _Parser(prog="siggen",
                     description="Generate a signature file from compiler/library inputs.")
    parser.add_argument("mode", choices=("obj", "lib", "comment"),
                        help="obj: text patterns from .o/.a files; "
                             "lib: MD5-of-.text from shared libraries; "
                             "comment: string patterns from .comment sections")
    parser.add_argument("inputs", nargs="+", metavar="input", help="input files")
    parser.add_argument("--package", required=True, help="package name annotation")
    parser.add_argument("--version", required=True, help="package version annotation")
    parser.add_argument("-o", "--output", required=True, help="signature file to write")
    return parser


def _sign_input(mode: str, input_path: str, used_origins: dict[str, int]
                ) -> tuple[list[sigdb.Signature], list[siggen.Rejected], list[str], str | None]:
    """What one ``siggen`` input gives: its signatures, the rejections of
    it or of its sections and members, the warnings raised reading it,
    and the line that says why it failed (None if it did not).  A failed
    input gives no signature and no rejection.

    The input is opened once, by :func:`provsig.elf.open_file`.  In obj
    mode an archive is read one member at a time
    (:func:`provsig.elf.read_archive`); any other input is read section
    by section (:func:`provsig.elf.read_elf`).
    ``used_origins`` holds the origin names taken so far in this run.
    """
    warnings: list[str] = []  # relocations dropped or clamped, a bad .comment
    try:
        with elf.open_file(input_path) as file:
            magic = os.pread(file.fileno(), len(elf.AR_MAGIC), 0)
            if mode == "obj" and magic == elf.AR_MAGIC:
                members = elf.read_archive(file)
                origin = siggen.unique_name(os.path.basename(input_path), used_origins)
                sigs, rejects = siggen.sign_archive(members, origin, warnings)
                return sigs, rejects, warnings, None
            # a linker script (libc.so, libm.a) is not signed, and its
            # GROUP is not followed
            if not magic.startswith(elf.ELF_MAGIC):
                return [], [siggen.Rejected("not an ELF object", input_path)], warnings, None
            image = elf.read_elf(file)
        # an executable or shared library given to obj is skipped
        # before it takes a name
        if mode == "obj" and not image.is_relocatable:
            return [], [siggen.Rejected("not a relocatable object", input_path)], warnings, None
        origin = siggen.unique_name(os.path.basename(input_path), used_origins)
        if mode == "obj":
            sigs, rejects = siggen.sign_object(image, origin, warnings)
        elif mode == "lib":
            result = siggen.sign_shared_lib(image, origin)
            sigs, rejects = (([], [siggen.Rejected(result.reason, input_path)])
                             if isinstance(result, siggen.Rejected) else ([result], []))
        else:  # comment
            sigs, rejects = siggen.sign_comments(elf.parse_comment(image, warnings), origin), []
    except OSError as exc:
        return [], [], warnings, f"cannot read {input_path}: {exc}"
    except (MalformedElf, UnsupportedElf, MalformedArchive) as exc:
        return [], [], warnings, f"{input_path}: {exc}"
    return sigs, rejects, warnings, None


def siggen_main(argv=None) -> int:
    try:
        args = _siggen_parser().parse_args(argv)
    except _UsageError as exc:
        _err(f"siggen: error: {exc}")
        return EXIT_USAGE

    signatures: list[sigdb.Signature] = []
    reports: list[siggen.Rejected] = []
    used_origins: dict[str, int] = {}
    failed = False
    for input_path in args.inputs:
        sigs, rejects, warnings, error = _sign_input(args.mode, input_path, used_origins)
        # printed against this input, before its error line if it fails
        for message in warnings:
            _err(f"siggen: warning: {input_path}: {message}")
        if error is not None:
            _err(f"siggen: {error}")
            failed = True
        signatures.extend(sigs)
        reports.extend(rejects)

    if args.mode == "comment":
        # identical vendor strings from different inputs would double-count
        unique: dict[sigdb.HexPattern, sigdb.Signature] = {}
        for sig in signatures:
            unique.setdefault(sig.pattern, sig)
        signatures = list(unique.values())

    for report in reports:
        _err(f"siggen: skipped {report.name}: {report.reason}")
    if failed:  # no .sig is written, so none silently lacks an input
        return EXIT_INPUT
    if not signatures:
        _err("siggen: no signatures generated")
        return EXIT_INPUT

    sig_file = sigdb.SignatureFile(package=args.package, version=args.version,
                                   signatures=tuple(signatures))
    try:
        sigdb.write_sigfile(sig_file, args.output)
    except (OSError, sigdb.UnwritableSigFile) as exc:
        _err(f"siggen: cannot write {args.output}: {exc}")
        return EXIT_INPUT
    return EXIT_OK


# --------------------------------------------------------------------------
# sigscan
# --------------------------------------------------------------------------

@functools.cache
def _sigscan_parser() -> _Parser:
    parser = _Parser(prog="sigscan",
                     description="Scan program binaries for build provenance.")
    parser.add_argument("--db", required=True, help="signature database directory")
    parser.add_argument("--search-path", action="append", default=[], metavar="DIR",
                        help="directory for resolving dynamic libraries (repeatable, "
                             f"ordered; ${ENV_SEARCH_PATH} entries are appended)")
    parser.add_argument("--no-dynamic", action="store_true",
                        help="skip dynamic-library resolution")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--labels", metavar="FILE",
                        help="symbol-versioning label list (one per line, replaces "
                             "the built-in list)")
    parser.add_argument("binaries", nargs="+", metavar="binary",
                        help="ELF executables or shared libraries to scan")
    return parser


def _compile_engine(db: sigdb.Database):
    """Compile the patterns of all text signatures and of all comment
    signatures, gathered in one walk over the database, into
    ``[(text engine, owners), (comment engine, owners)]``: ``owners[i]``
    holds engine index ``i``."""
    # target -> the patterns and owning files of its signatures
    picked = {sigdb.TARGET_TEXT: ([], []), sigdb.TARGET_COMMENT: ([], [])}
    for sf in db.files:
        for sig in sf.signatures:
            lists = picked.get(sig.target)
            if lists is not None:
                lists[0].append(sig.pattern)
                lists[1].append(sf)
    return [(matcher.compile(patterns), owners) for patterns, owners in picked.values()]


def _scan_one(target_path: str, db: sigdb.Database, engines, labels, search_paths,
              no_dynamic: bool, libraries: dict) -> ScanReport:
    """One target's report.  ``engines`` is what :func:`_compile_engine`
    returns.  ``libraries`` maps each library path resolved so far in
    this call to its :func:`_library_outcome`, so a library many targets
    need is read once.

    The target's headers are read with no body
    (:func:`provsig.elf.read_elf`), then only the bytes the report
    uses, from the file kept open: ``.dynamic`` and the string table it
    links, only when ``no_dynamic`` is false; each code section in
    windows (:func:`provsig.matcher.iter_windowed_matches`), so no more
    than a window and the text engine's overlap of it is held at once;
    and ``.comment`` whole."""
    text, comments = engines  # each an (engine, owners) pair
    # each match is tallied as the engine verifies it, and none is kept
    counts: dict[tuple[str, str], list[int]] = {}

    def tally(matches, owners):
        for m in matches:
            owner = owners[m.signature_id]
            entry = counts.setdefault((owner.package, owner.version), [0, 0])
            entry[0] += 1
            entry[1] += m.span

    with elf.open_file(target_path) as file:
        image = elf.read_elf(file, bodies=False)
        needed = () if no_dynamic else elf.dynamic_needed(image, file)
        engine, owners = text
        for section in elf.list_text_sections(image):
            tally(matcher.iter_windowed_matches(
                engine, functools.partial(elf.read_body, file, section), section.size), owners)
        comment = elf.get_section(image, ".comment")
        if comment is not None:
            engine, owners = comments
            tally(matcher.iter_matches(engine, elf.read_body(file, comment)), owners)

    package_hits = sorted(
        (PackageHit(package=pkg, version=ver, count=c, total_bytes=b)
         for (pkg, ver), (c, b) in counts.items()),
        key=lambda h: (-h.count, -h.total_bytes, h.package, h.version))

    dynlib_findings: list[DynlibFinding] = []
    warnings: list[str] = []
    for soname, resolved in resolve_dynamic(needed, search_paths):
        if resolved is None:
            warnings.append(f"unresolved dynamic library: {soname}")
            continue
        outcome = libraries.get(resolved)
        if outcome is None:
            outcome = libraries[resolved] = _library_outcome(db, resolved, labels)
        findings, warning = outcome
        dynlib_findings.extend(findings)
        if warning is not None:
            warnings.append(warning)
    return ScanReport(target_path, tuple(package_hits), tuple(dynlib_findings), tuple(warnings))


def _library_outcome(db: sigdb.Database, resolved: str,
                     labels) -> tuple[tuple[DynlibFinding, ...], str | None]:
    """What the library at ``resolved`` adds to a report: its findings,
    or the warning that it cannot be read.  Its headers are read with no
    body, then ``.gnu.version_d`` and its string table; its ``.text``
    only if they name no known label, for the MD5 lookup."""
    try:
        with elf.open_file(resolved) as file:
            lib = elf.read_elf(file, bodies=False)
            versions = symver.library_versions(lib, labels, file)
            if versions:
                return tuple(DynlibFinding(library=resolved, method=METHOD_SYMVER,
                                           name=label, version=version)
                             for label, version in versions), None
            return (_md5_lookup(db, lib, resolved, file),), None
    except (OSError, MalformedElf, UnsupportedElf, symver.MalformedVerdef) as exc:
        return (), f"{resolved}: {exc}"


def _md5_lookup(db: sigdb.Database, lib: elf.ElfImage, resolved: str, file) -> DynlibFinding:
    owner = db.md5_owners.get(sigdb.text_md5_key(lib, file))
    if owner is not None:
        return DynlibFinding(library=resolved, method=METHOD_MD5,
                             name=owner.package, version=owner.version)
    return DynlibFinding(library=resolved, method=METHOD_UNKNOWN, name="", version="")


def sigscan_main(argv=None) -> int:
    try:
        args = _sigscan_parser().parse_args(argv)
    except _UsageError as exc:
        _err(f"sigscan: error: {exc}")
        return EXIT_USAGE

    # Loading and compiling the database allocates some 10^5 objects, none
    # in a cycle: keep the cyclic collector off until both engines are
    # built, then freeze them so the scan's collections never walk them.
    # The caller's collector state is restored on return (the frozen
    # generation is emptied).
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            db = sigdb.load_db(args.db)
        except OSError as exc:
            _err(f"sigscan: {exc}")
            return EXIT_INPUT
        for warning in db.warnings:
            _err(f"sigscan: warning: {warning}")
        if not db.files:
            detail = f" ({len(db.warnings)} file(s) failed to parse)" if db.warnings else ""
            _err(f"sigscan: no signature files loaded from {Path(args.db)}{detail}")
            return EXIT_INPUT

        if args.labels:
            try:
                labels = symver.load_labels(args.labels)
            except (OSError, UnicodeDecodeError) as exc:
                _err(f"sigscan: cannot read labels file: {exc}")
                return EXIT_INPUT
        else:
            labels = list(symver.DEFAULT_LABELS)

        # an empty entry, from either source, is not the current directory
        env_paths = os.environ.get(ENV_SEARCH_PATH, "").split(os.pathsep)
        search_paths = [p for p in (*args.search_path, *env_paths) if p]

        engines = _compile_engine(db)
        gc.freeze()
        if collecting:
            gc.enable()

        status = EXIT_OK
        show_target = len(args.binaries) > 1 and args.format == "human"
        libraries: dict = {}
        for target in args.binaries:
            try:
                report = _scan_one(target, db, engines, labels, search_paths,
                                   args.no_dynamic, libraries)
            except (OSError, MalformedElf, UnsupportedElf) as exc:
                _err(f"sigscan: {target}: {exc}")
                status = EXIT_INPUT
                continue
            # paths as the bytes they name, DB text as UTF-8: no stdout
            # encoding can end the batch
            head = os.fsencode(target) + b":\n" if show_target else b""
            try:
                _write_stdout(head + format_report(report, args.format).encode(
                    "utf-8", "surrogateescape"))
            except BrokenPipeError:
                # no reader is left: stop, and let the flush at exit go nowhere
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, 1)
                os.close(devnull)
                return EXIT_INPUT
            if args.format == "human":  # a JSON report holds its warnings
                for warning in report.warnings:
                    _err(f"sigscan: warning: {warning}")
        return status
    finally:
        gc.unfreeze()
        if collecting:
            gc.enable()


def _write_stdout(data: bytes) -> None:
    """Write ``data`` to stdout's byte stream, after any text already
    written there; a text-only stand-in for stdout gets it decoded."""
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:
        sys.stdout.write(data.decode("utf-8", "surrogateescape"))
        return
    sys.stdout.flush()
    stream.write(data)
    stream.flush()


def main(argv=None) -> int:
    """``python -m provsig.cli {siggen,sigscan} ARGS...``: run that tool
    on ARGS; without a known tool name, print usage and return 1."""
    argv = sys.argv[1:] if argv is None else list(argv)
    tools = {"siggen": siggen_main, "sigscan": sigscan_main}
    if not argv or argv[0] not in tools:
        _err("usage: python -m provsig.cli {siggen,sigscan} ARGS...")
        return EXIT_USAGE
    return tools[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())

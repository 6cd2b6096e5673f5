"""On-disk signature database.

A database is a directory of ``*.sig`` text files.  Each file binds a
package name and version to its signatures:

    provsig 1
    package GNU Compiler Collection
    version 4.4.3
    crtbegin.o:.text:text:hex:4883ec08??48{5}c3
    libfoo.so.1:.text:dynlib:md5:9e107d9d372bb6826bd81d3542a419d6:4096

Line 1 is the format magic.  Header lines are ``key value`` pairs;
``package`` and ``version`` are mandatory, unknown keys are ignored.
Every other non-blank, non-``#`` line is one signature:
``name:target:kind:payload`` with target in {text, comment, dynlib}.
The kind follows from the target: ``hex`` for text and comment, whose
payload is lowercase hex pairs with ``??`` and ``{n}`` inline; ``md5``
for dynlib, whose payload is ``digest:textsize``.  The kind is written
and checked here and nowhere else; in memory a
:class:`~provsig.siggen.Signature` holds only its target.  Gap lengths
and text sizes are ASCII digits.  A hex payload must hold an *anchor*,
a literal run of two bytes or more, since a scan is keyed on one: a
line without one is neither read nor written, so every pattern a
database holds has an anchor.
Signature lines are parsed
right-anchored on the fixed kind/target vocabulary, so generated names
containing colons round-trip.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from provsig.elf import read_file
from provsig.siggen import (
    TARGET_COMMENT,
    TARGET_DYNLIB,
    TARGET_TEXT,
    HexPattern,
    PatternSyntaxError,
    Signature,
    parse_pattern_text,
    pattern_to_text,
)

MAGIC_LINE = "provsig 1"

# each hex target name -> the one str object every signature read shares
_HEX_TARGETS = {TARGET_TEXT: TARGET_TEXT, TARGET_COMMENT: TARGET_COMMENT}
_MD5_DIGEST_LEN = 32
_MD5_PAYLOAD = re.compile(r"[0-9a-f]{32}:[0-9]+")
_NO_ANCHOR = "has no anchor (no literal run of two bytes or more)"


class MalformedSigFile(ValueError):
    """Signature file that does not follow the format."""


class UnwritableSigFile(ValueError):
    """Signature file that would not read back as written."""


class EmptyDatabase(ValueError):
    """Database directory from which nothing loaded; ``warnings`` says
    why each file in it was skipped, in load order."""

    def __init__(self, message: str, warnings: tuple[str, ...]):
        super().__init__(message)
        self.warnings = warnings


class SignatureFile(NamedTuple):
    """Signatures from one compiler/library, annotated with its identity."""

    package: str
    version: str
    signatures: tuple[Signature, ...]


class Database(NamedTuple):
    """All loaded signature files with dense, load-stable signature ids."""

    files: tuple[SignatureFile, ...]
    warnings: tuple[str, ...]
    # (digest, text size) of each md5 record, the key text_md5_key
    # computes -> the file holding the first such record in load order
    md5_owners: dict[tuple[str, int], SignatureFile]


def _is_comment(line: str) -> bool:
    """Whether the reader skips ``line`` as a comment."""
    return line.lstrip().startswith("#")


def _one_line(text: str) -> bool:
    """Whether ``text`` holds no line boundary the reader splits at
    (``str.splitlines`` splits at ``\\v``, ``\\x85``, ``\\u2028`` and more
    besides CR and LF)."""
    return "".join(text.splitlines()) == text


def _has_anchor(literals: tuple[bytes, ...]) -> bool:
    """Whether a pattern's literal runs hold an anchor, a run of two
    bytes or more, which a scan is keyed on.  No run is empty, so one
    exists where the runs hold more bytes than there are runs."""
    return len(b"".join(literals)) > len(literals)


def write_sigfile(sf: SignatureFile, destination=None) -> bytes:
    """Serialize a signature file; optionally write it to ``destination``.

    One walk over the signatures checks and renders each line, and
    raises UnwritableSigFile, before anything is written, for a file
    :func:`parse_sigfile` would not read back as it is, or would refuse:
    a hex pattern without an anchor.
    """
    if not sf.package:
        raise UnwritableSigFile("package name must be non-empty")
    for field in (sf.package, sf.version):
        if not _one_line(field) or ":" in field:
            raise UnwritableSigFile(
                f"package/version may not contain colons or line breaks: {field!r}")
    lines = [MAGIC_LINE, f"package {sf.package}", f"version {sf.version}"]
    seen: set[str] = set()
    for sig in sf.signatures:
        if not sig.name or not _one_line(sig.name) or _is_comment(sig.name):
            raise UnwritableSigFile(f"bad signature name {sig.name!r}")
        if sig.name in seen:
            raise UnwritableSigFile(f"duplicate signature name {sig.name!r}")
        seen.add(sig.name)
        if sig.target == TARGET_DYNLIB:
            kind = "md5"
            try:
                payload = f"{sig.digest}:{sig.text_size}"
            except ValueError as exc:  # more digits than str() converts
                raise UnwritableSigFile(f"text size of signature {sig.name!r}: {exc}") from exc
            if not _MD5_PAYLOAD.fullmatch(payload):
                raise UnwritableSigFile(f"bad md5 payload {payload!r} of signature {sig.name!r}")
        elif sig.target not in _HEX_TARGETS:
            raise UnwritableSigFile(f"bad target {sig.target!r} of signature {sig.name!r}")
        elif not isinstance(sig.pattern, HexPattern):
            raise UnwritableSigFile(f"signature {sig.name!r} has no hex pattern")
        else:
            kind = "hex"
            try:
                payload = pattern_to_text(sig.pattern)
            except PatternSyntaxError as exc:
                raise UnwritableSigFile(f"pattern of signature {sig.name!r}: {exc}") from exc
            if not _has_anchor(sig.pattern.literals):
                raise UnwritableSigFile(f"pattern of signature {sig.name!r} {_NO_ANCHOR}")
        lines.append(f"{sig.name}:{sig.target}:{kind}:{payload}")
    lines.append("")  # the final line break, without a copy of the joined text
    text = "\n".join(lines)
    del lines  # the line strings go before the encoded copy is made
    try:
        blob = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # e.g. a name from a non-UTF-8 file name
        raise UnwritableSigFile(
            f"{exc.object[exc.start:exc.end]!r} is not encodable as UTF-8") from exc
    if destination is not None:
        Path(destination).write_bytes(blob)
    return blob


def parse_sigfile(data: bytes) -> SignatureFile:
    """Inverse of :func:`write_sigfile`.

    Every signature line is split once, by one ``rsplit`` from the
    right.  A hex line splits into name, target, kind and payload, and
    costs one more :func:`~provsig.siggen.parse_pattern_text` call,
    which reads a payload as :func:`write_sigfile` writes it in C-level
    string passes.  An md5 line splits into name and target, kind,
    digest and text size; one ``rpartition`` parts name and target,
    and one regular-expression match checks digest and size together.
    Each signature's target is the ``TARGET_*`` constant of
    :mod:`provsig.siggen`, not a string of its own per line.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedSigFile("not UTF-8 text") from exc
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC_LINE:
        raise MalformedSigFile("missing 'provsig 1' magic line")

    package: str | None = None
    version: str | None = None
    signatures: list[Signature] = []
    names: set[str] = set()
    new = tuple.__new__  # builds a Signature as Signature._make does
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or _is_comment(line):
            continue
        fields = line.rsplit(":", 3)
        if len(fields) == 1:  # no colon: a header line
            key, _, value = line.partition(" ")
            if key == "package":
                package = value
            elif key == "version":
                version = value
            continue  # unknown header keys are ignored
        if len(fields) == 4 and fields[2] == "hex":
            name, target_name, _, payload = fields
            target = _HEX_TARGETS.get(target_name)
            if target is None:
                raise MalformedSigFile(f"line {lineno}: bad hex target {target_name!r}")
            try:
                pattern = parse_pattern_text(payload)
            except PatternSyntaxError as exc:
                raise MalformedSigFile(f"line {lineno}: {exc}") from exc
            if not _has_anchor(pattern.literals):
                raise MalformedSigFile(f"line {lineno}: pattern {_NO_ANCHOR}")
            if not name:
                raise MalformedSigFile(f"line {lineno}: empty signature name")
            sig = new(Signature, (name, target, pattern, None, None))
        elif len(fields) == 4 and fields[1] == "md5" and ":" in fields[0]:
            head, _, digest, size_text = fields
            name, _, target = head.rpartition(":")
            if target != TARGET_DYNLIB:
                raise MalformedSigFile(f"line {lineno}: bad md5 target {target!r}")
            if not _MD5_PAYLOAD.fullmatch(f"{digest}:{size_text}"):
                if len(digest) != _MD5_DIGEST_LEN or digest.strip("0123456789abcdef"):
                    raise MalformedSigFile(f"line {lineno}: bad md5 digest {digest!r}")
                raise MalformedSigFile(f"line {lineno}: bad text size {size_text!r}")
            try:
                text_size = int(size_text)
            except ValueError as exc:  # more digits than int() converts
                raise MalformedSigFile(f"line {lineno}: bad text size {size_text!r}") from exc
            if not name:
                raise MalformedSigFile(f"line {lineno}: empty signature name")
            sig = new(Signature, (name, TARGET_DYNLIB, None, digest, text_size))
        else:
            raise MalformedSigFile(f"line {lineno}: unrecognized signature line")
        if sig.name in names:
            raise MalformedSigFile(f"line {lineno}: duplicate signature name {sig.name!r}")
        names.add(sig.name)
        signatures.append(sig)

    if package is None or not package:
        raise MalformedSigFile("missing package key")
    if version is None:
        raise MalformedSigFile("missing version key")
    return SignatureFile(package=package, version=version, signatures=tuple(signatures))


def load_db(directory) -> Database:
    """Load every ``*.sig`` file in the directory, sorted by file name.

    Corrupt files are skipped with a warning so one bad entry cannot
    take an audit down; the load fails only when nothing loads at all.
    """
    root = Path(directory)
    files: list[SignatureFile] = []
    warnings: list[str] = []
    for path in sorted(root.glob("*.sig"), key=lambda p: p.name):
        try:
            files.append(parse_sigfile(read_file(path)))
        except (MalformedSigFile, OSError) as exc:
            warnings.append(f"{path.name}: {exc}")
    if not files:
        detail = f" ({len(warnings)} file(s) failed to parse)" if warnings else ""
        raise EmptyDatabase(f"no signature files loaded from {root}{detail}", tuple(warnings))
    md5_owners: dict[tuple[str, int], SignatureFile] = {}
    for sf in files:
        for sig in sf.signatures:
            if sig.target == TARGET_DYNLIB:
                md5_owners.setdefault((sig.digest, sig.text_size), sf)
    return Database(tuple(files), tuple(warnings), md5_owners)

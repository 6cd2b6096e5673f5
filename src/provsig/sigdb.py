"""The signature model and its on-disk database.

This module is the one home of what the generator and the scanner
share: the in-memory records (:class:`Signature`, :class:`HexPattern`,
the ``TARGET_*`` names), the pattern text, the anchor rule
(:func:`has_anchor`) and a library's MD5 key (:func:`text_md5_key`).
:mod:`provsig.siggen` fills the records; :mod:`provsig.matcher` scans
with the patterns.

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
and checked here and nowhere else; in memory a :class:`Signature`
holds only its target.  Gap lengths and text sizes are ASCII digits.
A hex payload must hold an anchor, since a scan is keyed on one: a
line without one is neither read nor written, so every pattern a
database holds has an anchor.  Signature lines are parsed
right-anchored on the fixed kind/target vocabulary, so generated names
containing colons round-trip.  Text that breaks the grammar raises
:class:`MalformedSigFile` when read and :class:`UnwritableSigFile`
when written.

:func:`load_db` reads a directory into a :class:`Database` and returns
data only: each file it skips is one of its ``warnings``, and a
directory from which nothing loads is a database with no ``files``.
Whether that ends a run is the caller's choice (``sigscan`` prints the
warnings and exits 2).
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from pathlib import Path
from typing import NamedTuple

from provsig import elf
from provsig.elf import ElfImage

TARGET_TEXT = "text"
TARGET_COMMENT = "comment"
TARGET_DYNLIB = "dynlib"
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


class HexPattern(NamedTuple):
    """A byte pattern as a scan reads it.

    ``literals[i]`` is a literal run at span offset ``offsets[i]``;
    ``gaps`` holds ``(offset, length)`` pairs; every other position of
    the ``span`` bytes is a ``??``, which matches what a gap does: the
    two differ only in the ``.sig`` text.  Runs are in order, non-empty
    and never abut; a gap never abuts a gap, overlaps a run or opens or
    closes the pattern (:func:`pattern_to_text` refuses one that does).
    A scan needs an anchor (:func:`has_anchor`), which
    :func:`provsig.siggen.build_pattern` ensures; this module neither
    reads nor writes a pattern without one, so
    :func:`provsig.matcher.compile` never meets one.
    """

    span: int
    offsets: tuple[int, ...]
    literals: tuple[bytes, ...]
    gaps: tuple[tuple[int, int], ...]


class Signature(NamedTuple):
    """One detection rule; its target says what it carries.

    A ``text`` or ``comment`` signature carries a pattern against those
    bytes; a ``dynlib`` one carries the digest and size of a library's
    .text.
    """

    name: str
    target: str  # TARGET_TEXT | TARGET_COMMENT | TARGET_DYNLIB
    pattern: HexPattern | None = None
    digest: str | None = None
    text_size: int | None = None


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


def has_anchor(literals: tuple[bytes, ...]) -> bool:
    """Whether a pattern's literal runs hold an anchor, a run of two
    bytes or more, which a scan is keyed on.  No run is empty, so one
    exists where the runs hold more bytes than there are runs."""
    return len(b"".join(literals)) > len(literals)


_NO_GAP = (math.inf, 0)  # what pattern_to_text reads once past the last gap


def pattern_to_text(pattern: HexPattern) -> str:
    """Render a pattern: lowercase hex pairs, ``??`` wildcards, ``{n}`` gaps.

    One walk over the runs, writing each gap as the walk passes it.  A
    pattern that no text reads back as itself (one that breaks a rule of
    :class:`HexPattern`, or has an empty gap, a part past its span or no
    span) raises :class:`UnwritableSigFile` during that walk.
    """
    span, offsets, literals, gaps = pattern
    if len(offsets) != len(literals) or not all(literals):
        raise UnwritableSigFile("pattern has an empty literal run or not one offset per run")
    parts: list[str] = []
    pos = 0  # the span offset written up to
    run_floor, gap_floor = 0, 1  # the least offsets the next run and gap may start at
    more_gaps = iter(gaps)
    gap_at, length = next(more_gaps, _NO_GAP)
    # the span's end closes the walk as a run without bytes
    for at, literal in zip((*offsets, span), (*literals, None)):
        while gap_at < at:
            if gap_at < gap_floor or length < 1 or gap_at + length >= span:
                raise UnwritableSigFile(f"gap at offset {gap_at} is empty, abuts a gap, "
                                         "opens or closes the pattern or is out of place")
            parts.append("??" * (gap_at - pos))
            parts.append(f"{{{length}}}")
            pos = run_floor = gap_at + length
            gap_floor = pos + 1
            gap_at, length = next(more_gaps, _NO_GAP)
        if literal is None:
            break
        if at < run_floor:
            raise UnwritableSigFile(f"literal run at offset {at} abuts a run or is out of place")
        parts.append("??" * (at - pos))
        parts.append(literal.hex())
        pos = gap_floor = at + len(literal)
        run_floor = pos + 1
    if gap_at != _NO_GAP[0] or pos > span or span < 1:
        raise UnwritableSigFile("pattern is empty or has a part past its span")
    parts.append("??" * (span - pos))
    return "".join(parts)


_PATTERN_TOKEN = re.compile(
    r" *(?:(?P<hex>[0-9a-f][0-9a-f ]*)"
    r"|(?P<any>\?\?(?: *\?\?)*)"
    r"|\{(?P<gap>[0-9]+)\})")


# what bytes.fromhex skips (ASCII whitespace) or reads (uppercase) and
# the grammar refuses
_FROMHEX_ONLY = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "A", "B", "C", "D", "E", "F")


def _parse_canonical(text: str) -> HexPattern | None:
    """The pattern of ``text`` if it is written as :func:`pattern_to_text`
    writes it, else None.  The one place a pattern is built from text.

    The text is split on ``{``: every part after the first is
    ``digits}rest``, a gap and the part it leads to.  Each gap-free
    part is split on ``??``: every boundary of that split is one
    wildcard byte, and every non-empty piece one literal run, read by
    :meth:`bytes.fromhex`.  A part that holds no ``?`` is taken as one
    piece without a split.  That call skips ASCII whitespace and reads
    uppercase, which the grammar refuses, so text holding either is
    declined before it is split.  The pattern is built as
    :meth:`HexPattern._make` builds it, without a Python-level call.
    """
    for char in _FROMHEX_ONLY:
        if char in text:
            return None
    offsets: list[int] = []
    literals: list[bytes] = []
    gaps: list[tuple[int, int]] = []
    fromhex = bytes.fromhex
    pos = 0  # the span offset read up to
    try:
        for index, part in enumerate(text.split("{")):
            if index:  # every part but the first opens with a gap
                digits, brace, part = part.partition("}")
                if not (brace and digits.isascii() and digits.isdigit()):
                    return None
                length = int(digits)
                if length < 1:
                    return None
                gaps.append((pos, length))
                pos += length
            if not part:  # empty text, a gap first, last or next to a gap
                return None
            pos -= 1
            for piece in part.split("??") if "?" in part else (part,):
                pos += 1  # the ``??`` before every piece but the first
                if piece:
                    literal = fromhex(piece)
                    offsets.append(pos)
                    literals.append(literal)
                    pos += len(literal)
    except ValueError:  # not hex pairs, or more digits than int() converts
        return None
    return tuple.__new__(HexPattern, (pos, tuple(offsets), tuple(literals), tuple(gaps)))


def parse_pattern_text(text: str) -> HexPattern:
    """Inverse of :func:`pattern_to_text`; accepts optional spaces
    between tokens.

    Tokens are runs of hex pairs, runs of ``??`` and ``{n}`` gaps, with
    ASCII characters only: a gap length is ASCII digits.

    Text as :func:`pattern_to_text` writes it is read by C-level string
    passes (:func:`_parse_canonical`).  Any other text, spaced or
    uppercase or malformed, goes to one regular-expression match per
    token, which alone judges the grammar and words every
    :class:`MalformedSigFile`; text that passes is written again as
    :func:`pattern_to_text` would write it and read by those passes.
    """
    pattern = _parse_canonical(text)
    if pattern is not None:
        return pattern
    text = text.rstrip(" ")
    parts: list[str] = []  # the canonical text of each token
    pos = 0
    while pos < len(text):
        token = _PATTERN_TOKEN.match(text, pos)
        if token is None:
            raise MalformedSigFile(f"bad token at offset {pos}: {text[pos:pos + 12]!r}")
        hex_run, any_run, digits = token.groups()
        if hex_run is not None:
            try:  # hex pairs with optional spaces between pairs
                parts.append(bytes.fromhex(hex_run).hex())
            except ValueError as exc:
                raise MalformedSigFile(f"bad hex run {hex_run.strip()!r}") from exc
        elif any_run is not None:
            parts.append("??" * (any_run.count("?") // 2))
        else:
            try:
                length = int(digits)
            except ValueError as exc:  # more digits than int() converts
                raise MalformedSigFile(f"bad gap length {digits!r}") from exc
            if length < 1:
                raise MalformedSigFile("gap length must be >= 1")
            if not parts:
                raise MalformedSigFile("pattern must not start or end with a gap")
            if parts[-1][0] == "{":
                raise MalformedSigFile("adjacent gaps")
            parts.append(f"{{{length}}}")
        pos = token.end()
    if not parts:
        raise MalformedSigFile("empty pattern")
    if parts[-1][0] == "{":
        raise MalformedSigFile("pattern must not start or end with a gap")
    return _parse_canonical("".join(parts))


def text_md5_key(image: ElfImage, file=None) -> tuple[str, int] | None:
    """A shared library's identity key: the MD5 hex digest and the size
    of its first .text section, or None when it has none.  A body the
    walk left unread is read from ``file``
    (:func:`provsig.elf.read_body`) and hashed
    :data:`provsig.elf.WINDOW` bytes at a time, so no more than that
    is held.

    Depends only on the code bytes, so on-disk churn in relocation or
    dynamic-linking data (prelinking) does not change it.

    The digest is CPython's own MD5 (``_md5``): :mod:`hashlib` would
    map OpenSSL's libcrypto into the process for it.  Only an
    interpreter built without ``_md5`` takes it from :mod:`hashlib`.
    The digest names a library and guards nothing, which
    ``usedforsecurity=False`` says, so an OpenSSL in FIPS mode does not
    refuse it.
    """
    text = elf.get_section(image, ".text")
    if text is None:
        return None
    # imported here, so a scan that never takes a digest loads neither
    try:
        from _md5 import md5
    except ImportError:
        from hashlib import md5
    window = elf.WINDOW
    digest = md5(elf.read_body(file, text, 0, min(window, text.size)), usedforsecurity=False)
    for start in range(window, text.size, window):
        digest.update(elf.read_body(file, text, start, min(window, text.size - start)))
    return digest.hexdigest(), text.size


def write_sigfile(sf: SignatureFile, destination=None) -> bytes:
    """Serialize a signature file; optionally write it to ``destination``.

    One walk over the signatures checks and renders each line, and
    raises UnwritableSigFile, before anything is written, for a file
    :func:`parse_sigfile` would not read back as it is, or would refuse:
    a hex pattern without an anchor.  The file is written whole or not
    at all (:func:`_write_whole`).
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
            except UnwritableSigFile as exc:
                raise UnwritableSigFile(f"pattern of signature {sig.name!r}: {exc}") from exc
            if not has_anchor(sig.pattern.literals):
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
        _write_whole(destination, blob)
    return blob


def _write_whole(destination, blob: bytes) -> None:
    """Write ``blob`` to a new file beside ``destination`` and rename it
    over ``destination`` once it is whole, so a write that fails (a full
    disk, a file-size limit) leaves any old file as it was.  On failure
    the new file is removed and the error raised, naming ``destination``
    as :meth:`~pathlib.Path.write_bytes` would name it.  The new file's
    name starts with a dot and ends in ``.tmp``, so no ``*.sig`` match
    takes it for a signature file, and it is created with the mode a new
    file gets from ``open``.  A symbolic link is written through, as
    ``open`` writes through it: the file it names is replaced."""
    target = os.path.realpath(destination)
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as file:
                file.write(blob)
            os.replace(temporary, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise
    except OSError as exc:
        if exc.filename is None:  # a failed write names no file
            raise
        raise OSError(exc.errno, exc.strerror, str(Path(destination))) from None


def parse_sigfile(data: bytes) -> SignatureFile:
    """Inverse of :func:`write_sigfile`.

    Every signature line is split once, by one ``rsplit`` from the
    right.  A hex line splits into name, target, kind and payload, and
    costs one more :func:`parse_pattern_text` call,
    which reads a payload as :func:`write_sigfile` writes it in C-level
    string passes.  An md5 line splits into name and target, kind,
    digest and text size; one ``rpartition`` parts name and target,
    and one regular-expression match checks digest and size together.
    Each signature's target is its ``TARGET_*`` constant, not a string
    of its own per line.
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
            except MalformedSigFile as exc:
                raise MalformedSigFile(f"line {lineno}: {exc}") from exc
            if not has_anchor(pattern.literals):
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

    A file that cannot be read or parsed is skipped, and why is told in
    ``warnings``, so one bad entry cannot take an audit down.  A
    directory from which nothing loads gives a database with no files;
    what to make of that is the caller's to decide.
    """
    files: list[SignatureFile] = []
    warnings: list[str] = []
    for path in sorted(Path(directory).glob("*.sig"), key=lambda p: p.name):
        try:
            files.append(parse_sigfile(elf.read_file(path)))
        except (MalformedSigFile, OSError) as exc:
            warnings.append(f"{path.name}: {exc}")
    md5_owners: dict[tuple[str, int], SignatureFile] = {}
    for sf in files:
        for sig in sf.signatures:
            if sig.target == TARGET_DYNLIB:
                md5_owners.setdefault((sig.digest, sig.text_size), sf)
    return Database(tuple(files), tuple(warnings), md5_owners)

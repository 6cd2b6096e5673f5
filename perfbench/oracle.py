"""The paper's pattern rule and the ``.sig`` text format, written
independently of ``provsig`` so the benchmark can build its database
and judge ``siggen`` output without trusting the code it measures.

Rule: a text section of n bytes with relocation-masked positions
becomes a pattern of at most 255 positions.  n < 16 is rejected;
n <= 255 keeps the whole section; otherwise the trailing 85 bytes of
each third are kept, joined by gaps of l = n//3 - 85 and m = l + n%3
bytes.  Masked bytes are ``??``; a run of cells that is ``??``
throughout becomes part of the neighbouring gap, and leading and
trailing ``??``/gaps are trimmed.  Fewer than 16 positions left, or no
run of two literal bytes, rejects the section.
"""

from __future__ import annotations

MIN_POSITIONS = 16
MAX_POSITIONS = 255
SEGMENT = 85

TOO_SHORT = "too-short"
UNANCHORABLE = "unanchorable"

_ANY = None  # a masked cell


def sample_spans(n: int) -> list[tuple[int, int]]:
    """Byte ranges of the section that the pattern keeps."""
    if n <= MAX_POSITIONS:
        return [(0, n)]
    third = n // 3
    return [(third - SEGMENT, third), (2 * third - SEGMENT, 2 * third), (n - SEGMENT, n)]


def build_pattern(data: bytes, masked) -> tuple[str, int] | str:
    """(pattern text, fixed span in bytes) for a section, or the
    rejection reason.  ``masked`` is a set of masked byte offsets."""
    n = len(data)
    if n < MIN_POSITIONS:
        return TOO_SHORT
    # runs of cells separated by gap lengths: [cells, gap, cells, ...]
    parts: list = []
    cursor = None
    for lo, hi in sample_spans(n):
        if cursor is not None and lo > cursor:
            parts.append(lo - cursor)
        cells = [_ANY if i in masked else data[i] for i in range(lo, hi)]
        if parts and isinstance(parts[-1], list):
            parts[-1].extend(cells)
        else:
            parts.append(cells)
        cursor = hi
    merged: list = []
    for part in parts:
        if isinstance(part, list) and all(c is _ANY for c in part):
            part = len(part)
        if isinstance(part, int) and merged and isinstance(merged[-1], int):
            merged[-1] += part
        else:
            merged.append(part)
    while merged and isinstance(merged[0], int):
        merged.pop(0)
    while merged and isinstance(merged[-1], int):
        merged.pop()
    if merged:
        first = merged[0]
        while first and first[0] is _ANY:
            first.pop(0)
        last = merged[-1]
        while last and last[-1] is _ANY:
            last.pop()

    positions = sum(len(p) for p in merged if isinstance(p, list))
    if positions < MIN_POSITIONS:
        return TOO_SHORT
    longest = run = 0
    tokens: list[str] = []
    span = 0
    for part in merged:
        if isinstance(part, int):
            tokens.append(f"{{{part}}}")
            span += part
            run = 0
            continue
        for cell in part:
            if cell is _ANY:
                tokens.append("??")
                run = 0
            else:
                tokens.append(f"{cell:02x}")
                run += 1
                longest = max(longest, run)
        span += len(part)
    if longest < 2:
        return UNANCHORABLE
    return "".join(tokens), span


def render_sig(package: str, version: str, lines: list[str]) -> bytes:
    """A ``.sig`` file: magic, package and version headers, then one
    ``name:target:kind:payload`` line per signature."""
    return ("\n".join(["provsig 1", f"package {package}", f"version {version}", *lines])
            + "\n").encode("utf-8")


def hex_line(name: str, target: str, pattern: str) -> str:
    return f"{name}:{target}:hex:{pattern}"


def md5_line(name: str, digest: str, size: int) -> str:
    return f"{name}:dynlib:md5:{digest}:{size}"


def parse_sig(blob: bytes) -> dict:
    """{"package", "version", "signatures": {name: (target, kind, payload)}}.

    Raises ValueError on text that does not follow the format.
    """
    lines = blob.decode("utf-8").splitlines()
    if not lines or lines[0] != "provsig 1":
        raise ValueError("missing magic line")
    out = {"package": None, "version": None, "signatures": {}}
    for line in lines[1:]:
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if ":" not in line:
            key, _, value = line.partition(" ")
            if key in ("package", "version"):
                out[key] = value
            continue
        fields = line.split(":")
        if len(fields) >= 4 and fields[-2] == "hex":
            name, value = ":".join(fields[:-3]), (fields[-3], "hex", fields[-1])
        elif len(fields) >= 5 and fields[-3] == "md5":
            name, value = ":".join(fields[:-4]), (fields[-4], "md5", ":".join(fields[-2:]))
        else:
            raise ValueError(f"bad signature line {line!r}")
        if name in out["signatures"]:
            raise ValueError(f"duplicate signature {name!r}")
        out["signatures"][name] = value
    return out

"""Multi-pattern scanning engine for :class:`provsig.sigdb.HexPattern`.

All patterns are compiled into one engine, which scans a buffer once
per word table and once per short key; a match names its pattern by
list index, which the caller maps to a signature.  Each pattern has an
*anchor*: its longest wildcard-free byte run, earliest run on ties,
which is two bytes or more, since :mod:`provsig.sigdb` reads and
writes no pattern without such a run (:func:`provsig.sigdb.has_anchor`).
The engine is keyed not on the whole anchor but on a *key*: the
anchor's first ``KEY_LEN`` bytes (an anchor shorter than that is its
own key).  Every occurrence of a pattern contains its key, so keying
on a window loses no match.  Which window is the key is a heuristic:
patterns whose anchors start alike share a key, which costs
verifications, never a match.

That rule keys some patterns on padding: ``leave; ret`` or ``pop rbp;
ret`` followed by a run of ``00``, ``90`` or ``cc`` bytes ends many
short functions.  Such a key hits every padding run of a buffer, and
each hit costs a slot iteration.  So a key holding eight equal bytes
in a row is replaced by the longest candidate window free of such a
run among the pattern's literal runs of 11 bytes or more, earliest on
ties; candidate windows start every ``KEY_LEN`` bytes of a run, plus
the run's last window.  With none, the key stays.  Padding keys are
found in one C-level pass over the joined keys.

Keys of 11 bytes or more are found by a two-level literal filter, in
the line of Wu-Manber and Hyperscan.  Level 1 reads the buffer as
native 8-byte words at every ``step``-th position, ``step`` (4 or 8)
being the largest power of two <= key length - 7, so every occurrence
of a key holds a sampled word at exactly one key offset ``j < step``.
Those words sit in one hash table per alignment (0, and 4 if a key has
step 4), and the hit positions of each table come out of one C-level
filter over the buffer's words, which runs no Python code on a word
that misses.  A small table's words take few values in each of their 8
bytes (*lanes*): the alignment-4 table of some 45 keys, or of all keys
of a small engine.  While each lane takes at most 128 values, the
table's pass first filters on the lanes, as Hyperscan's Teddy matcher
ANDs a byte-class mask per literal position: a strided slice of the
buffer per lane, mapped by ``bytes.translate`` to 1 for a value the
lane takes and 0 for any other, and the lanes ANDed as big integers.
Only the words left (7% of code-like words, for 45 keys of 11-14
bytes) are looked up in the table, so such a pass costs what its keys
can hit rather than a lookup per word.  A big table's lanes take
nearly every value, so its pass looks up every word.
Level 2 looks each candidate key position's bytes up in a
dict of keys, which maps each key to the ids of the signatures keyed
on it, and each one's full pattern is verified at the start its key's
offset inside the pattern (``keys[id]``) gives: each literal run must
equal the buffer's bytes at its span offset, and nothing else of the
pattern is read.  Pattern gaps have
exact lengths, so every pattern occupies a fixed span, which keeps both
the key arithmetic and the verification trivial.

A key under 11 bytes would need a word pass of its own, however few
such keys there are.  Instead each distinct short key is searched for
by a ``bytes.find`` loop that resumes one byte past each occurrence, so
overlaps are found.  One search costs about 2% of a 4-byte word pass
over the same bytes, so searching loses beyond some 40-50 short keys.

This departs from the paper's ClamAV-style Aho-Corasick automaton; it
reports the same matches, and the naive every-start regular expression
oracle in the tests is the judge of that.

``iter_matches`` scans the windows of a body, a code section's or
``.comment``'s alike, as :func:`provsig.elf.read_windows` cuts them:
each window is a ``(base, buffer, limit)`` triple.  It verifies each
key occurrence where the filter finds it and yields each match that
starts in the window's first ``limit`` bytes, its start counted from
``base``, as a :class:`Match`: every occurrence of every signature,
overlaps included, each (signature, start) whose bytes match once.  A
window that reads the engine's ``overlap`` (its longest span less one,
computed at compile) past its limit, or reaches the body's end, holds
every match that starts before its limit, so every match comes once
however the windows cut its key, its runs or its span.  It keeps no
list of hits and drops each window before it takes the next, so a
caller that tallies the matches as they come needs memory bounded by
the database and one window.  ``scan_all`` is the stream of one window
over a whole buffer, sorted by (start, signature id).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, repeat
from typing import Iterator, NamedTuple

from provsig.sigdb import HexPattern

KEY_LEN = 16
_MIN_TABLED = 11  # the shortest key 8-byte words sample at a step of 4
_PAD = 8  # a key holding this many equal bytes in a row is padding
_NARROW = 128  # a table filters on its lanes while none takes more byte values
_MARK = re.compile(b"\x01")


class Match(NamedTuple):
    """One verified occurrence: which signature, where, how many bytes."""

    signature_id: int
    start: int
    span: int


class CompiledEngine:
    """Immutable compiled word filter and short-key search, verifying
    against the patterns themselves; safe to share across threads.  Build
    with :func:`compile`.  ``keys`` exposes, per pattern, the (key bytes,
    span offset) pair it is found by; ``overlap`` is the longest span
    less one, by which a scan's windows overlap (:func:`iter_matches`).
    """

    __slots__ = ("keys", "overlap", "_passes", "_short_keys", "_owners", "_verify")

    def __init__(self, keys, overlap, passes, short_keys, owners, verify):
        self.keys: tuple[tuple[bytes, int], ...] = keys
        self.overlap: int = overlap
        self._passes = passes
        self._short_keys = short_keys
        self._owners = owners
        self._verify = verify


def compile(patterns: list[HexPattern]) -> CompiledEngine:
    """Build one engine from hex patterns.

    Each pattern's anchor is its longest literal run, earliest on ties:
    ``max`` by length returns the earliest, and ``index`` finds it, since
    an equal run before it would be as long.  The filter is keyed on
    the first ``KEY_LEN`` bytes of the anchor, unless that key is
    padding (see :func:`_padding_free_key`).  Matches report list
    indices.  Every pattern must hold an anchor, a literal run of two
    bytes or more, as every pattern read from or written to a ``.sig``
    file does: :mod:`provsig.sigdb` refuses any other.
    """
    keys: list[tuple[bytes, int]] = []
    # the longest span, taken here: a pass of its own adds 0.5 ms to the
    # compile of a 10k-signature DB
    widest = 1
    for span, offsets, literals, _ in patterns:
        longest = max(literals, key=len)
        keys.append((longest[:KEY_LEN], offsets[literals.index(longest)]))
        if span > widest:
            widest = span
    for index in _padding_keys([key for key, _ in keys]):
        _, offsets, literals, _ = patterns[index]
        keys[index] = _padding_free_key(zip(offsets, literals)) or keys[index]

    # level 2: key bytes -> the ids of the signatures keyed on it; each
    # one's key span offset is in ``keys``
    owners: dict[bytes, list[int]] = {}
    by_len: dict[int, list[bytes]] = {}
    for sig_idx, (key, _) in enumerate(keys):
        if key not in owners:
            owners[key] = []
            by_len.setdefault(len(key), []).append(key)
        owners[key].append(sig_idx)
    short_keys = tuple(chain.from_iterable(by_len.pop(n, ()) for n in range(_MIN_TABLED)))
    passes = _word_tables(by_len)
    for key, ids in owners.items():  # one at a time, so no list outlives its tuple
        owners[key] = tuple(ids)
    return CompiledEngine(tuple(keys), widest - 1, passes, short_keys, owners, tuple(patterns))


def _word_tables(by_len: dict[int, list[bytes]]):
    """Level 1: per alignment r of the scan's 8-byte words, in order of
    r, the pass entry (r, table, lanes).  The table maps a word value to
    the distinct (key offset j, key length) slots it starts; lanes holds
    a translation per byte l of a word, or none if a lane is wide.

    ``by_len`` holds keys of 11 to 16 bytes.  A key's step s is the
    largest power of two <= its length - 7, 4 or 8, and it is tabled at
    each alignment r % s == 0, for each j < s.  The keys of one length
    are joined, each padded to a whole number of words, so each j reads
    every key's word at once by a strided cast of the joined bytes
    (j + 8 <= key length, so no word reads padding, and the last key
    needs none).  Words new to the table go in by one C-level update
    sharing the one-element tuple of slot (j, length); only the few
    already there get the slot appended in Python.

    Lane l of slot j's words is byte j + l of the keys, one strided
    slice of the joined bytes.  Once a lane takes more than ``_NARROW``
    values, the table's lanes are dropped, so a big table (the
    alignment-0 table of a 10k-signature DB) costs one slice.
    Lane l's translation maps its values to 1 and every other byte to 0.
    A filter on fewer lanes would let through too many words: on
    code-like sections, one lane of 66 values passes 58% of them.
    """
    tables: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
    lanes: dict[int, list[set[int]] | None] = {}
    for key_len, same_len in by_len.items():
        step = 1 << (key_len - 7).bit_length() - 1
        width = -(-key_len // 8) * 8
        joined = bytes(width - key_len).join(same_len)
        view = memoryview(joined)
        end = width * (len(same_len) - 1) + 8
        for r in range(0, 8, step):
            table = tables.setdefault(r, {})
            values = lanes.setdefault(r, [set() for _ in range(8)])
            for j in range(step):
                one = ((j, key_len),)
                words = view[j:j + end].cast("Q")[::width // 8]
                clashes = {value: table[value] for value in table.keys() & words}
                table.update(zip(words, repeat(one)))
                # a clash holds slots of earlier passes only: no other
                # pass adds (j, length) to this table
                for value, slots in clashes.items():
                    table[value] = slots + one
                for l, seen in enumerate(values or ()):
                    seen.update(joined[j + l::width])
                    if len(seen) > _NARROW:
                        values = lanes[r] = None
                        break
    return tuple((r, tables[r], tuple(bytes(map(seen.__contains__, range(256)))
                                      for seen in lanes[r] or ()))
                 for r in sorted(tables))


def _key_offsets(run_len: int) -> list[int]:
    """Offsets of the candidate key windows inside a literal run."""
    last = run_len - KEY_LEN
    if last <= 0:
        return [0]
    offsets = list(range(0, last, KEY_LEN))
    offsets.append(last)
    return offsets


def _padding_keys(keys: list[bytes]) -> list[int]:
    """Indices of the keys holding ``_PAD`` equal bytes in a row.

    One C-level pass over the joined keys: byte i of ``same`` is 0 where
    joined bytes i and i + 1 are equal, so ``_PAD - 1`` zeros in a row
    start such a run.  Only the runs found are mapped to their keys; one
    that crosses into the next key does not count.
    """
    joined = b"".join(keys)
    same = (int.from_bytes(joined[1:], "little")
            ^ int.from_bytes(joined[:-1], "little")).to_bytes(max(len(joined) - 1, 0), "little")
    zeros = bytes(_PAD - 1)
    at = same.find(zeros)
    if at < 0:
        return []
    ends = list(accumulate(map(len, keys)))
    padded = []
    while at >= 0:
        index = bisect_right(ends, at)
        if at + _PAD <= ends[index]:
            padded.append(index)
            at = ends[index]
        else:
            at += 1
        at = same.find(zeros, at)
    return padded


def _padding_free_key(runs) -> tuple[bytes, int] | None:
    """The longest candidate window, earliest on ties, that holds no
    ``_PAD`` equal bytes in a row, as (bytes, span offset), over the
    (span offset, literal) runs of ``_MIN_TABLED`` bytes or more and
    their :func:`_key_offsets`; None if there is none."""
    best = None
    for run_off, literal in runs:
        if len(literal) < _MIN_TABLED:
            continue
        for off in _key_offsets(len(literal)):
            window = literal[off:off + KEY_LEN]
            if (best is None or len(window) > len(best[0])) and not _padding_keys([window]):
                best = (window, run_off + off)
    return best


def _key_hits(engine: CompiledEngine, buffer: bytes):
    """Yield (position, owners) of each key occurrence: a tabled one at a
    is sampled only at p = a + j, p % step == 0, j < step."""
    owners = engine._owners
    n = len(buffer)
    view = memoryview(buffer)
    for r, table, lanes in engine._passes:
        size = max(n - r, 0) // 8
        words = view[r:r + size * 8].cast("Q")
        if lanes:
            # byte i of ``ok`` is 1 iff every byte of word i is a value
            # the table's words take in that lane; only those words reach
            # the table, one at a time, so no list of them is built
            ok = -1
            for l, translation in enumerate(lanes):
                ok &= int.from_bytes(buffer[r + l:r + l + size * 8:8].translate(translation),
                                     "little")
            sampled = map(re.Match.start, _MARK.finditer(ok.to_bytes(size, "little")))
        else:
            sampled = compress(count(), map(table.__contains__, words))
        for i in sampled:
            pos = r + i * 8
            for j, key_len in table.get(words[i], ()):
                at = pos - j
                if at < 0 or at + key_len > n:
                    continue
                found = owners.get(buffer[at:at + key_len])
                if found is not None:
                    yield at, found
    for key in engine._short_keys:
        at = buffer.find(key)
        while at >= 0:
            yield at, owners[key]
            at = buffer.find(key, at + 1)


def iter_matches(engine: CompiledEngine, windows) -> Iterator[Match]:
    """Yield each verified occurrence of each signature that starts
    before its window's limit, in no set order; ``windows`` yields
    ``(base, buffer, limit)`` with ``buffer`` as bytes, and each start
    is counted from ``base``.  With one key per signature, none comes
    twice from one window."""
    keys = engine.keys
    verify = engine._verify
    for base, buffer, limit in windows:
        n = len(buffer)
        for at, found in _key_hits(engine, buffer):
            for sig_idx in found:
                start = at - keys[sig_idx][1]
                span, offsets, literals, _ = verify[sig_idx]
                if start < 0 or start >= limit or start + span > n:
                    continue
                if all(map(buffer.startswith, literals, map(start.__add__, offsets))):
                    yield Match(sig_idx, base + start, span)
        del buffer  # freed before the next window is read


def scan_all(engine: CompiledEngine, buffer) -> tuple[Match, ...]:
    """Every match of :func:`iter_matches` over ``buffer`` as one window,
    sorted by (start, signature id)."""
    buffer = bytes(buffer)  # the same object if it is bytes already
    return tuple(sorted(iter_matches(engine, ((0, buffer, len(buffer)),)),
                        key=lambda m: (m.start, m.signature_id)))

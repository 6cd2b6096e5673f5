"""Multi-pattern scanning engine for hex signatures.

All signatures are compiled into a single Aho-Corasick automaton and a
buffer is scanned in one pass.  Each signature has an *anchor*: its
longest wildcard-free byte run, earliest run on ties.  The automaton is
keyed not on the whole anchor but on a *key*: a ``KEY_LEN``-byte window
inside it (an anchor shorter than that is its own key).  Candidate
windows start every ``KEY_LEN`` bytes of the anchor, plus the anchor's
last window; the candidate contained in the fewest of the engine's
anchors wins, earliest on ties, so a prologue or padding window shared
by many signatures is not chosen while a rarer one exists.  When a key
fires, the candidate start position is derived from the key's offset
inside the pattern and the full pattern is verified there (literals
must equal buffer bytes, ``??`` positions and gap ranges are skipped).
Every occurrence of a pattern contains its key, so keying on a window
loses no match; it only bounds the trie depth.  Because pattern gaps
have exact lengths, every pattern occupies a fixed span, which keeps
both the key arithmetic and the verification trivial.

The trie mirrors the classic two-level 256-way layout: the root and
every depth-1 node carry a dense, failure-resolved 256-entry transition
row; deeper nodes keep sparse child maps and fall back through failure
links.  Keys are at least two bytes, so every key terminates at
depth >= 2.

``scan_all`` makes that one pass, over a text section or ``.comment``
bytes alike, and returns every verified occurrence of every signature,
overlaps included, as a tuple of :class:`Match` sorted by (start,
signature id): each (signature, start) whose bytes match is reported
once.  It only reads the buffer, so every match it reports is made of
the input's own bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from provsig.siggen import KIND_HEX, HexPattern, Signature

KEY_LEN = 16


class UnanchorableSignature(ValueError):
    """Signature whose pattern has no anchor (:attr:`HexPattern.anchor`).

    ``index`` is the signature's position in the list given to
    :func:`compile`.
    """

    def __init__(self, index: int, name: str):
        super().__init__(name)
        self.index = index
        self.name = name


@dataclass(frozen=True)
class Match:
    """One verified occurrence: which signature, where, how many bytes."""

    signature_id: int
    start: int
    span: int


class CompiledEngine:
    """Immutable compiled automaton; safe to share across threads.

    Build with :func:`compile`.  ``patterns``, ``anchors`` and ``keys``
    expose, per signature, the source pattern, the (anchor bytes, span
    offset) pair and the (key bytes, span offset) pair the trie holds.
    """

    __slots__ = ("patterns", "anchors", "keys", "_dense", "_ndense", "_children",
                 "_fail", "_out", "_verify")

    def __init__(self, patterns, anchors, keys, dense, ndense, children, fail, out,
                 verify):
        self.patterns: tuple[HexPattern, ...] = patterns
        self.anchors: tuple[tuple[bytes, int], ...] = anchors
        self.keys: tuple[tuple[bytes, int], ...] = keys
        self._dense = dense
        self._ndense = ndense
        self._children = children
        self._fail = fail
        self._out = out
        self._verify = verify


def compile(signatures: list[Signature]) -> CompiledEngine:
    """Build one engine from hex signatures.

    The anchor is :attr:`HexPattern.anchor`; the trie is keyed on a
    window of it chosen by :func:`_choose_keys`.  Names play no part;
    matches report list indices.  Raises UnanchorableSignature if a
    pattern has no anchor (generated patterns always have one; this
    guards hand-written input).
    """
    patterns: list[HexPattern] = []
    anchors: list[tuple[bytes, int]] = []
    verify: list[tuple[int, tuple[tuple[int, bytes], ...]]] = []
    for index, sig in enumerate(signatures):
        if sig.kind != KIND_HEX or sig.pattern is None:
            raise ValueError(f"engine only accepts hex signatures, got {sig.kind!r}")
        anchor_run = sig.pattern.anchor
        if anchor_run is None:
            raise UnanchorableSignature(index, sig.name)
        anchor_off, anchor = anchor_run
        patterns.append(sig.pattern)
        anchors.append((anchor, anchor_off))
        verify.append((sig.pattern.fixed_span, tuple(sig.pattern.literal_runs())))
    keys = _choose_keys(anchors)

    # goto trie over the keys, built one depth at a time in sorted key
    # order, which numbers the states breadth-first with siblings
    # adjacent: the dense depth-1 states get the low ids, every failure
    # target has a lower id than its source, and the states a scan walks
    # together sit close in memory (built in key-index order instead, the
    # trie scanned code-like bytes about 15% slower)
    children: list[dict[int, int]] = [{}]
    parent_byte: list[tuple[int, int]] = [(-1, -1)]
    payload: list[list[tuple[int, int, int]]] = [[]]
    at = [0] * len(keys)
    by_key = sorted(range(len(keys)), key=lambda i: keys[i][0])
    for depth in range(max((len(key) for key, _ in keys), default=0)):
        for idx in by_key:
            key, key_off = keys[idx]
            if depth >= len(key):
                continue
            parent = at[idx]
            byte = key[depth]
            node = children[parent].get(byte)
            if node is None:
                node = len(children)
                children[parent][byte] = node
                children.append({})
                parent_byte.append((parent, byte))
                payload.append([])
            at[idx] = node
            if depth + 1 == len(key):
                payload[node].append((idx, len(key), key_off))

    # failure links and output propagation, in id order
    n = len(children)
    ndense = 1 + len(children[0])
    fail = [0] * n
    out: list[tuple[tuple[int, int, int], ...]] = [()] * n
    for node in range(ndense, n):
        parent, byte = parent_byte[node]
        f = fail[parent]
        while True:
            nxt = children[f].get(byte)
            if nxt is not None:
                fail[node] = nxt
                break
            if f == 0:
                break
            f = fail[f]
        out[node] = tuple(payload[node]) + out[fail[node]]

    # dense failure-resolved rows for the two top levels
    root_row = [children[0].get(b, 0) for b in range(256)]
    dense = [root_row]
    for node in range(1, ndense):
        row = children[node]
        dense.append([row.get(b) if b in row else root_row[b] for b in range(256)])

    return CompiledEngine(tuple(patterns), tuple(anchors), keys, dense, ndense,
                          children, fail, out, tuple(verify))


def _key_offsets(anchor_len: int) -> list[int]:
    """Offsets of the candidate key windows inside an anchor."""
    last = anchor_len - KEY_LEN
    if last <= 0:
        return [0]
    offsets = list(range(0, last, KEY_LEN))
    offsets.append(last)
    return offsets


def _choose_keys(anchors) -> tuple[tuple[bytes, int], ...]:
    """Per anchor, the (key bytes, span offset) the trie is built on.

    The key is the candidate window contained in the fewest anchors,
    earliest on ties; an anchor up to ``KEY_LEN`` bytes is its own key.
    """
    candidates = {anchor[off:off + KEY_LEN]
                  for anchor, _ in anchors if len(anchor) > KEY_LEN
                  for off in _key_offsets(len(anchor))}
    containing: Counter[bytes] = Counter()
    for anchor, _ in anchors:
        windows = {anchor[i:i + KEY_LEN] for i in range(len(anchor) - KEY_LEN + 1)}
        containing.update(windows & candidates)
    keys = []
    for anchor, anchor_off in anchors:
        key_off = min(_key_offsets(len(anchor)),
                      key=lambda off: containing[anchor[off:off + KEY_LEN]])
        keys.append((anchor[key_off:key_off + KEY_LEN], anchor_off + key_off))
    return tuple(keys)


def scan_all(engine: CompiledEngine, buffer) -> tuple[Match, ...]:
    """Every verified occurrence of every signature, overlaps included,
    in one pass over ``buffer``, sorted by (start, signature id); the
    buffer is only read."""
    if not isinstance(buffer, (bytes, bytearray)):
        buffer = bytes(buffer)
    dense = engine._dense
    ndense = engine._ndense
    children = engine._children
    fail = engine._fail
    out = engine._out
    verify = engine._verify
    n = len(buffer)
    # a signature has one key, so at each position a state's output
    # names it at most once and each (signature, start) is found once
    hits: list[Match] = []
    state = 0
    for pos, byte in enumerate(buffer):
        if state < ndense:
            state = dense[state][byte]
        else:
            while True:
                nxt = children[state].get(byte)
                if nxt is not None:
                    state = nxt
                    break
                state = fail[state]
                if state < ndense:
                    state = dense[state][byte]
                    break
        found = out[state]
        if found:
            for sig_idx, anchor_len, anchor_off in found:
                start = pos + 1 - anchor_len - anchor_off
                if start < 0:
                    continue
                span, chunks = verify[sig_idx]
                if start + span > n:
                    continue
                for chunk_off, literal in chunks:
                    if not buffer.startswith(literal, start + chunk_off):
                        break
                else:
                    hits.append(Match(sig_idx, start, span))
    hits.sort(key=lambda m: (m.start, m.signature_id))
    return tuple(hits)

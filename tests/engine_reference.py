"""Per-item reference builds of the matcher's keys and level-1 word
tables.

:func:`provsig.matcher.compile` finds padding keys in one pass over the
joined keys, and :func:`provsig.matcher._word_tables` reads every key's
word at one offset in one strided pass and each lane's values from the
key bytes.  The references here are the earlier loops: one slice
comparison per position of a key, one ``int.from_bytes`` and one dict
probe per (key, offset), and the lanes read back from each table word,
so the tests can compare the two.
"""

from __future__ import annotations

import sys

from provsig.matcher import KEY_LEN, _key_offsets


def is_padding(key: bytes) -> bool:
    """Whether ``key`` holds eight equal bytes in a row."""
    return any(key[at:at + 8] == key[at:at + 1] * 8 for at in range(len(key) - 7))


def choose_keys(anchors, verify) -> tuple[tuple[bytes, int], ...]:
    """Per (anchor, span offset), the anchor's first ``KEY_LEN`` bytes
    as (key bytes, span offset).  A padding key is replaced by the
    longest window free of padding, earliest on ties, among the
    candidate windows of the pattern's literal runs of 11 bytes or more
    (``verify`` holds each pattern: its span, run offsets, run literals
    and gaps); with no such window it stays."""
    keys = []
    for (anchor, anchor_off), (_, offsets, literals, _) in zip(anchors, verify):
        key = (anchor[:KEY_LEN], anchor_off)
        if is_padding(key[0]):
            windows = [(literal[off:off + KEY_LEN], run_off + off)
                       for run_off, literal in zip(offsets, literals) if len(literal) >= 11
                       for off in _key_offsets(len(literal))
                       if not is_padding(literal[off:off + KEY_LEN])]
            if windows:
                # max keeps the first of equal lengths
                key = max(windows, key=lambda window: len(window[0]))
        keys.append(key)
    return tuple(keys)


def word_tables(by_len: dict[int, list[bytes]]):
    """Per alignment r of 8-byte words, word value -> the distinct
    (key offset j, key length) slots it starts, in first-seen order.
    Keys of 11-14 bytes are sampled every 4 bytes, of 15-16 every 8."""
    tables: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
    for key_len, same_len in by_len.items():
        step = 4 if key_len < 15 else 8
        for r in range(0, 8, step):
            table = tables.setdefault(r, {})
            for j in range(step):
                one = ((j, key_len),)
                for key in same_len:
                    value = int.from_bytes(key[j:j + 8], sys.byteorder)
                    slots = table.get(value)
                    if slots is None:
                        table[value] = one
                    elif one[0] not in slots:
                        table[value] = slots + one
    return tables


def lanes(table) -> tuple[bytes, ...]:
    """Per byte l of the table's words in memory order, a translation
    that maps each value they take there to 1 and every other byte to 0;
    none if one byte takes more than 128 values."""
    values: list[set[int]] = [set() for _ in range(8)]
    for word in table:
        for lane, byte in enumerate(word.to_bytes(8, sys.byteorder)):
            values[lane].add(byte)
    if any(len(seen) > 128 for seen in values):
        return ()
    return tuple(bytes(int(byte in seen) for byte in range(256)) for seen in values)

"""Per-item reference builds of the matcher's key choice and level-1
word tables.

:func:`provsig.matcher._choose_keys` cuts, counts and ranks candidate
windows one column of a length group at a time, and
:func:`provsig.matcher._word_tables` reads every key's word at one
offset in one strided pass.  The references here are the earlier loops:
one set of windows and one ``min`` per anchor, and one
``int.from_bytes`` and one dict probe per (key, offset), so the tests
can compare the two.
"""

from __future__ import annotations

import sys
from collections import Counter

from provsig.matcher import KEY_LEN, _key_offsets


def choose_keys(anchors) -> tuple[tuple[bytes, int], ...]:
    """Per (anchor, span offset), the candidate window the fewest
    anchors list, earliest on ties, as (key bytes, span offset)."""
    listed: Counter[bytes] = Counter()
    for anchor, _ in anchors:
        listed.update({anchor[off:off + KEY_LEN] for off in _key_offsets(len(anchor))})
    keys = []
    for anchor, anchor_off in anchors:
        key_off = min(_key_offsets(len(anchor)),
                      key=lambda off: listed[anchor[off:off + KEY_LEN]])
        keys.append((anchor[key_off:key_off + KEY_LEN], anchor_off + key_off))
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

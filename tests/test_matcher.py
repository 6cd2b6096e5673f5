"""matcher module: engine compilation and scanning against a naive oracle."""

from __future__ import annotations

import random
import re
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import engine_reference
import pattern_reference
from provsig import elf, matcher
from provsig.sigdb import HexPattern

from pattern_reference import ANY, Gap, expand, from_elements, well_formed

CALL_STUB_TEXT = bytes.fromhex(
    "554889e54883ec10bf0a000000e800000000488945f8c9c3")
CALL_STUB_ELEMENTS = tuple(CALL_STUB_TEXT[:14]) + (ANY, ANY, ANY, ANY) \
    + tuple(CALL_STUB_TEXT[18:])


def pairs(matches) -> set[tuple[int, int]]:
    """The (signature id, start) of each match."""
    return {(m.signature_id, m.start) for m in matches}


def naive_scan_once(patterns: list[HexPattern], buffer: bytes) -> set[tuple[int, int]]:
    """Every (pattern index, start) at which the pattern's bytes occur.

    Each pattern becomes one regular expression (each literal run
    escaped, ``.{n}`` for the n bytes before it, ``??`` or gap, and
    for those after the last run) inside a zero-width lookahead, so
    ``finditer`` tries it at every start position of the buffer.
    """
    found: set[tuple[int, int]] = set()
    for sig_idx, pattern in enumerate(patterns):
        pieces = []
        pos = 0
        for offset, literal in zip(pattern.offsets, pattern.literals):
            pieces += [b".{%d}" % (offset - pos), re.escape(literal)]
            pos = offset + len(literal)
        pieces.append(b".{%d}" % (pattern.span - pos))
        regex = re.compile(b"(?=" + b"".join(pieces) + b")", re.DOTALL)
        found.update((sig_idx, m.start()) for m in regex.finditer(buffer))
    return found


# -- compile -------------------------------------------------------------------

def test_compile_empty_engine_matches_nothing():
    engine = matcher.compile([])
    assert len(matcher.scan_all(engine, bytes(1024))) == 0


def test_compile_call_stub_anchor():
    # an anchor of up to 16 bytes is its own key
    engine = matcher.compile([from_elements(CALL_STUB_ELEMENTS)])
    assert engine.keys[0] == (CALL_STUB_TEXT[:14], 0)


def test_compile_anchor_longest_run_earliest_tie():
    elements = (0x01, 0x02, ANY, 0x03, 0x04, 0x05, ANY, 0x06, 0x07, 0x08)
    engine = matcher.compile([from_elements(elements)])
    assert engine.keys[0] == (b"\x03\x04\x05", 3)


def test_compile_duplicate_names_both_match():
    patterns = [from_elements((1, 2, 3)), from_elements((4, 5, 6))]
    engine = matcher.compile(patterns)
    assert pairs(matcher.scan_all(engine, b"\x04\x05\x06\x01\x02\x03")) == \
        {(0, 3), (1, 0)}


def test_shared_anchor_verified_independently():
    base = tuple(b"\x10\x20\x30\x40\x50\x60")
    a = from_elements(base + (0x70,))
    b = from_elements(base + (0x71,))
    engine = matcher.compile([a, b])
    buffer = b"..." + bytes(base) + b"\x71..."
    assert pairs(matcher.scan_all(engine, buffer)) == {(1, 3)}


def test_patterns_differing_only_in_masked_positions_both_match():
    source = bytes(range(0x20, 0x20 + 20))
    a = from_elements(tuple(source[:10]) + (ANY,) + tuple(source[11:]))
    b = from_elements(tuple(source[:15]) + (ANY,) + tuple(source[16:]))
    patterns = [a, b]
    engine = matcher.compile(patterns)
    buffer = b"xx" + source + b"yy"
    found = pairs(matcher.scan_all(engine, buffer))
    assert found == {(0, 2), (1, 2)} == naive_scan_once(patterns, buffer)


_RUNS = st.one_of(
    st.binary(min_size=1, max_size=40).map(tuple),
    st.lists(st.sampled_from([0x00, 0x90]), min_size=1, max_size=40).map(tuple),
    st.integers(1, 4).map(lambda n: (ANY,) * n),
    st.integers(1, 40).map(lambda n: (Gap(n),)),
)
_ANCHORED = st.lists(_RUNS, min_size=1, max_size=6) \
    .map(lambda runs: tuple(chain.from_iterable(runs))) \
    .filter(lambda elements: well_formed(elements)
            and pattern_reference.anchor(elements) is not None)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ANCHORED, min_size=1, max_size=8))
def test_engine_layout_agrees_with_per_element_reference(element_lists):
    patterns = [from_elements(elements) for elements in element_lists]
    engine = matcher.compile(patterns)
    anchors = []
    for elements, pattern, (key, key_off), verify in zip(
            element_lists, patterns, engine.keys, engine._verify):
        anchor_off, anchor = pattern_reference.anchor(elements)
        anchors.append((anchor, anchor_off))
        runs = list(zip(pattern.offsets, pattern.literals))
        assert (pattern.span, runs) == (pattern_reference.fixed_span(elements),
                                        pattern_reference.literal_runs(elements))
        # the engine verifies against the pattern itself
        assert verify is pattern
        # a window of the anchor, or of a run of 11 bytes or more where
        # a padding key moved
        windows = {(literal[off:off + matcher.KEY_LEN], run_off + off)
                   for run_off, literal in runs if run_off == anchor_off or len(literal) >= 11
                   for off in matcher._key_offsets(len(literal))}
        assert (key, key_off) in windows
    assert engine.keys == engine_reference.choose_keys(anchors, engine._verify)


# -- keys ----------------------------------------------------------------------

# anchors made of a few 16-byte blocks and a short tail, so first
# windows recur across anchors and padding blocks sit at every window
_BLOCKS = [bytes([fill]) * 16 for fill in (0x00, 0x90)] + [bytes(range(16))]
_SHARED_ANCHORS = st.lists(
    st.tuples(st.tuples(st.lists(st.sampled_from(_BLOCKS), min_size=0, max_size=5),
                        st.binary(max_size=15))
              .map(lambda cut: b"".join(cut[0]) + cut[1]).filter(lambda anchor: len(anchor) >= 2),
              st.integers(0, 8)),
    min_size=1, max_size=24)


@settings(max_examples=300, deadline=None)
@given(anchors=st.one_of(_SHARED_ANCHORS,
                         st.lists(st.tuples(st.binary(min_size=2, max_size=70),
                                            st.integers(0, 8)),
                                  min_size=1, max_size=24)),
       tails=st.lists(st.one_of(st.sampled_from(_BLOCKS + [b"\xc9\xc3" + b"\xcc" * 14]),
                                st.binary(min_size=8, max_size=40)), max_size=4))
# distinct first windows: each anchor keys on its own
@example(anchors=[(bytes(range(start, start + 40)), start % 5) for start in range(0, 200, 40)],
         tails=[])
# every first window is the zero block, a padding key: only the anchor
# with a padding-free window moves, to it; the others share the key
@example(anchors=[(_BLOCKS[0] + tail, 0)
                  for tail in (_BLOCKS[1], _BLOCKS[2], _BLOCKS[0] + b"\x07",
                               _BLOCKS[1] + _BLOCKS[0], b"\x01\x02")],
         tails=[])
# padding keys: the first two move to their anchor's second window
# (their tails are padding), the third to its 11-byte tail, and the
# last stays (its tail is under 11 bytes)
@example(anchors=[(_BLOCKS[1] + _BLOCKS[2], 0), (_BLOCKS[1] + _BLOCKS[2], 3),
                  (b"\xc9\xc3" + b"\xcc" * 14, 0), (_BLOCKS[0], 1)],
         tails=[_BLOCKS[0], _BLOCKS[1], bytes(range(11)), bytes(range(10))])
# eight equal bytes across the first two keys: neither is padding, so
# both stay
@example(anchors=[(bytes(range(12)) + b"\xcc" * 4, 0), (b"\xcc" * 4 + bytes(range(12)), 0),
                  (bytes(range(100, 116)), 0)],
         tails=[])
def test_key_choice_agrees_with_per_anchor_reference(anchors, tails):
    # ``anchor_off`` wildcards, the anchor, then one wildcard and the
    # next tail, each pattern taking the next one
    patterns = []
    for index, (anchor, anchor_off) in enumerate(anchors):
        elements = (ANY,) * anchor_off + tuple(anchor)
        if tails:
            elements += (ANY,) + tuple(tails[index % len(tails)])
        patterns.append(from_elements(elements))
    engine = matcher.compile(patterns)
    # a tail longer than its anchor is the pattern's anchor
    reference_anchors = [(anchor, anchor_off) for anchor_off, anchor
                         in (pattern_reference.anchor(expand(pattern)) for pattern in patterns)]
    assert engine.keys == engine_reference.choose_keys(reference_anchors, engine._verify)


def test_key_is_anchor_first_window_whoever_shares_it():
    rng = random.Random(16)
    x, y, u0, u1, u2 = (rng.randbytes(16) for _ in range(5))
    anchors = [x + u0 + u1,  # x starts two anchors, so they share their key
               y + x + u2,
               x + y]
    patterns = [from_elements(_flanked(a)) for a in anchors]
    engine = matcher.compile(patterns)
    assert engine.keys == ((x, 2), (y, 2), (x, 2))
    buffer = b"".join(b"\x41\x00" + a + b"\x00\x42" + x for a in anchors)
    assert len(_assert_oracle(patterns, buffer)) == 3


def test_shared_run_off_the_key_grid_may_be_a_key_and_scans_like_the_oracle():
    # only the first anchor starts with ``shared``, so it is that
    # anchor's key; the others hold it past their first window, so its
    # key hits inside every other anchor must fail verification
    rng = random.Random(21)
    shared = rng.randbytes(16)
    anchors = [shared + rng.randbytes(24)]
    anchors += [rng.randbytes(lead) + shared + rng.randbytes(24 - lead)
                for lead in (3, 7, 13, 21)]
    patterns = [from_elements(_flanked(a)) for a in anchors]
    engine = matcher.compile(patterns)
    assert engine.keys[0] == (shared, 2)
    assert all(key != shared for key, _ in engine.keys[1:])
    pieces = []
    for anchor in anchors + anchors[::-1]:
        pieces += [b"\x41\x00" + anchor + b"\x00\x42", PROLOGUE * rng.randrange(3),
                   b"\x41\x00" + anchor + b"\x00\x43", shared, rng.randbytes(rng.randrange(9))]
    buffer = b"".join(pieces)
    found = _assert_oracle(patterns, buffer)
    assert {sig_idx for sig_idx, _ in found} == set(range(len(patterns)))
    assert len(found) == 2 * len(patterns)


def test_signatures_sharing_a_prologue_key_each_match_once_per_occurrence():
    rng = random.Random(3)
    prologue = bytes.fromhex("f30f1efa554889e54883ec2048897de8")
    anchors = [prologue + rng.randbytes(20) for _ in range(10)]
    patterns = [from_elements((0x90, ANY) + tuple(a)) for a in anchors]
    engine = matcher.compile(patterns)
    assert matcher.KEY_LEN == 16
    for pattern, expected in zip(patterns, anchors):
        assert pattern_reference.anchor(expand(pattern)) == (2, expected)
    # one key owned by all ten: each hit on it verifies all ten
    assert engine.keys == ((prologue, 2),) * 10
    pieces = [prologue * 3]
    for index in (3, 7, 3, 0, 9):
        pieces += [b"\x90" + bytes([index]) + anchors[index], prologue, rng.randbytes(5)]
    buffer = b"".join(pieces)
    found = pairs(matcher.scan_all(engine, buffer))
    assert found == naive_scan_once(patterns, buffer)
    assert sorted(sig_idx for sig_idx, _ in found) == [0, 3, 3, 7, 9]


@pytest.mark.parametrize("length", [2, 15, 16, 17])
def test_key_for_short_and_boundary_anchors(length):
    rng = random.Random(length)
    anchor = rng.randbytes(length)
    pattern = from_elements((0x41, ANY) + tuple(anchor) + (ANY, 0x42))
    engine = matcher.compile([pattern])
    assert pattern_reference.anchor(expand(pattern)) == (2, anchor)
    assert engine.keys[0] == (anchor[:16], 2)
    instance = b"\x41\x00" + anchor + b"\x00\x42"
    buffer = instance + rng.randbytes(50) + instance + instance[:-1]
    found = pairs(matcher.scan_all(engine, buffer))
    assert found == {(0, 0), (0, len(instance) + 50)}
    assert found == naive_scan_once([pattern], buffer)


def test_key_deep_inside_anchor_matches_at_buffer_start_and_end():
    rng = random.Random(11)
    # three 15-byte runs before a 24-byte anchor put its key 50 bytes
    # into the span, past a whole 48-byte stretch of sampled words
    lead = (0xAA, ANY) + tuple(chain.from_iterable(tuple(rng.randbytes(15)) + (ANY,)
                                                   for _ in range(3)))
    anchors = [rng.randbytes(24) for _ in range(4)]
    patterns = [from_elements(lead + tuple(a) + (ANY, 0xBB)) for a in anchors]
    engine = matcher.compile(patterns)
    assert [key_off for _, key_off in engine.keys] == [50] * 4

    def instance(index: int) -> bytes:
        filled = [rng.randrange(256) if element is ANY else element
                  for element in lead + tuple(anchors[index]) + (ANY, 0xBB)]
        return bytes(filled)

    first, last = instance(0), instance(2)
    buffer = first + rng.randbytes(100) + last
    expected = {(0, 0), (2, len(buffer) - len(last))}
    assert pairs(matcher.scan_all(engine, buffer)) == expected \
        == naive_scan_once(patterns, buffer)
    # a key hit whose pattern would start before the buffer or end past it
    clipped = first[1:] + last[:-1]
    assert pairs(matcher.scan_all(engine, clipped)) == set() \
        == naive_scan_once(patterns, clipped)


# -- scan_all ------------------------------------------------------------------

def test_scan_finds_stub_at_origin():
    engine = matcher.compile([from_elements(CALL_STUB_ELEMENTS)])
    found = matcher.scan_all(engine, CALL_STUB_TEXT)
    assert [(m.signature_id, m.start, m.span) for m in found] == [(0, 0, 24)]


def test_scan_wildcards_match_any_linked_address():
    engine = matcher.compile([from_elements(CALL_STUB_ELEMENTS)])
    patched = bytearray(CALL_STUB_TEXT)
    patched[14:18] = b"\xde\xad\xbe\xef"
    buffer = b"\x00" * 100 + bytes(patched) + b"\xff" * 10
    found = matcher.scan_all(engine, buffer)
    assert pairs(found) == {(0, 100)}


def test_scan_buffer_shorter_than_span():
    engine = matcher.compile([from_elements(CALL_STUB_ELEMENTS)])
    assert len(matcher.scan_all(engine, CALL_STUB_TEXT[:20])) == 0


def test_scan_gap_requires_exact_distance():
    elements = (0xAA, 0xBB, Gap(3), 0xCC, 0xDD)
    engine = matcher.compile([from_elements(elements)])
    good = b"\xaa\xbb...\xcc\xdd"
    off_by_one = b"\xaa\xbb....\xcc\xdd"
    assert pairs(matcher.scan_all(engine, good)) == {(0, 0)}
    assert pairs(matcher.scan_all(engine, off_by_one)) == set()


def test_scan_overlapping_matches_reported():
    engine = matcher.compile([from_elements((0x61, 0x61, 0x61))])
    found = matcher.scan_all(engine, b"aaaaa")
    assert pairs(found) == {(0, 0), (0, 1), (0, 2)}


def test_scan_matchset_sorted_and_deduplicated():
    engine = matcher.compile([from_elements((0x41, 0x42)), from_elements((0x42, 0x43))])
    found = matcher.scan_all(engine, b"ABCABC")
    assert isinstance(found, tuple)
    assert all(isinstance(m, matcher.Match) for m in found)
    keys = [(m.start, m.signature_id) for m in found]
    assert keys == sorted(keys)
    assert len(pairs(found)) == len(list(found))


def test_scan_all_two_plants():
    engine = matcher.compile([from_elements(CALL_STUB_ELEMENTS)])
    buffer = bytearray(130)
    buffer[0:24] = CALL_STUB_TEXT
    buffer[100:124] = CALL_STUB_TEXT
    found = matcher.scan_all(engine, bytes(buffer))
    assert pairs(found) == {(0, 0), (0, 100)}


def test_scan_all_zero_buffer_nonzero_pattern():
    engine = matcher.compile([from_elements((0x41,) * 16)])
    assert len(matcher.scan_all(engine, bytes(4096))) == 0


def test_scan_all_zero_literal_pattern_terminates():
    patterns = [from_elements((0x00,) * 16)]
    engine = matcher.compile(patterns)
    buffer = bytes(64)
    found = matcher.scan_all(engine, buffer)
    assert pairs(found) == naive_scan_once(patterns, buffer)


def test_scan_all_does_not_mutate_caller_buffer():
    engine = matcher.compile([from_elements(CALL_STUB_ELEMENTS)])
    buffer = bytearray(CALL_STUB_TEXT)
    matcher.scan_all(engine, buffer)
    assert buffer == CALL_STUB_TEXT


def test_scan_all_reports_no_ghost_match_over_a_found_match():
    # the stub's bytes are not all zero; a scan that zeroes found spans
    # and rescans would report the zero signature at starts 8-16
    patterns = [from_elements(CALL_STUB_ELEMENTS), from_elements((0x00,) * 16)]
    engine = matcher.compile(patterns)
    buffer = b"\x90" * 8 + CALL_STUB_TEXT + b"\x90" * 8
    found = pairs(matcher.scan_all(engine, buffer))
    assert found == {(0, 8)} == naive_scan_once(patterns, buffer)


# -- word filter: differential checks against the oracle -------------------------

PROLOGUE = bytes.fromhex("f30f1efa554889e5")


def _flanked(anchor: bytes, left: int = 0x41, right: int = 0x42) -> tuple:
    """A pattern whose anchor (and key, up to 16 bytes) is ``anchor``."""
    return (left, ANY) + tuple(anchor) + (ANY, right)


def _assert_oracle(patterns, buffer) -> set[tuple[int, int]]:
    engine = matcher.compile(patterns)
    found = matcher.scan_all(engine, buffer)
    assert len(found) == len(pairs(found))
    expected = naive_scan_once(patterns, bytes(buffer))
    assert pairs(found) == expected
    assert all(m.span == patterns[m.signature_id].span for m in found)
    return expected


def test_anchor_lengths_2_to_17_in_one_engine():
    rng = random.Random(217)
    anchors = [rng.randbytes(length) for length in range(2, 18)]
    patterns = [from_elements(_flanked(a)) for a in anchors]
    engine = matcher.compile(patterns)
    # keys of 11-14 bytes are sampled at alignments 0 and 4; shorter ones
    # are searched for.  Seven tabled keys give a lane at most 40 values,
    # so both passes filter on the eight lanes
    assert [r for r, _, _ in engine._passes] == [0, 4]
    for _, table, lanes in engine._passes:
        assert len(lanes) == 8 and lanes == engine_reference.lanes(table)
    assert engine._short_keys == tuple(anchors[:9])
    buffer = bytearray(rng.randbytes(6000))
    planted = set()
    for plant in range(48):
        sig_idx = plant % len(patterns)
        start = plant * 120 + rng.randrange(0, 90)
        instance = b"\x41\x00" + anchors[sig_idx] + b"\x00\x42"
        buffer[start:start + len(instance)] = instance
        planted.add((sig_idx, start))
    assert planted <= _assert_oracle(patterns, bytes(buffer))


@pytest.mark.parametrize("length", [2, 3, 4, 5, 7, 8, 10, 11, 14, 15, 16, 17])
def test_key_at_every_offset_mod_8(length):
    rng = random.Random(800 + length)
    anchor = rng.randbytes(length)
    patterns = [from_elements(_flanked(anchor))]
    instance = b"\x41\x00" + anchor + b"\x00\x42"
    for offset in range(16):
        buffer = rng.randbytes(offset) + instance + rng.randbytes(24)
        assert (0, offset) in _assert_oracle(patterns, buffer)


def test_matches_at_buffer_start_and_end_for_every_word_size():
    rng = random.Random(51)
    patterns = [from_elements(tuple(rng.randbytes(length)))
            for length in (2, 3, 4, 6, 9, 12, 16, 23)]
    for pattern in patterns:
        (literal,) = pattern.literals
        for middle in (b"", b"\x00", rng.randbytes(13)):
            buffer = literal + middle + literal
            found = _assert_oracle(patterns, buffer)
            index = patterns.index(pattern)
            assert {(index, 0), (index, len(buffer) - len(literal))} <= found


def test_buffer_shorter_than_one_word():
    rng = random.Random(7)
    patterns = [from_elements(tuple(rng.randbytes(length))) for length in range(2, 9)]
    patterns.append(from_elements((0x00, 0x00)))
    for length in range(8):
        for _ in range(20):
            buffer = rng.randbytes(length)
            _assert_oracle(patterns, buffer)
        _assert_oracle(patterns, bytes(length))
    for pattern in patterns[:6]:
        _assert_oracle(patterns, pattern.literals[0])


def test_code_like_prologue_runs():
    rng = random.Random(88)
    body = PROLOGUE * 300
    tail = rng.randbytes(40)
    patterns = [
        from_elements(tuple(PROLOGUE)),
        from_elements(tuple(PROLOGUE * 2)),
        from_elements(tuple(PROLOGUE[4:] + PROLOGUE + PROLOGUE[:3])),
        from_elements(tuple(PROLOGUE) + (ANY,) * 8 + tuple(PROLOGUE[:6])),
        from_elements(tuple(PROLOGUE[:5]) + (Gap(11),) + tuple(PROLOGUE)),
        from_elements(tuple(PROLOGUE[-5:] + tail[:20])),
        from_elements(tuple(PROLOGUE + b"\xc3")),
    ]
    for buffer in (body + tail, b"\x90" + body + tail, (PROLOGUE + b"\x90") * 200):
        _assert_oracle(patterns, buffer)


@pytest.mark.parametrize("fill", [0x00, 0xCC, 0x90])
def test_code_like_padding_runs_with_keys_of_padding_bytes(fill):
    rng = random.Random(fill)
    pad = bytes([fill])
    patterns = [from_elements((fill,) * length) for length in (2, 3, 5, 8, 11, 16, 17)]
    patterns.append(from_elements((0xC3,) + (fill,) * 12))
    patterns.append(from_elements((fill,) * 6 + (ANY, ANY) + (fill,) * 9))
    patterns.append(from_elements((fill ^ 0xFF,) * 9))
    pieces = []
    for _ in range(30):
        pieces.append(pad * rng.randrange(0, 70))
        pieces.append(rng.choice([b"\xc3", rng.randbytes(rng.randrange(1, 9)), PROLOGUE]))
    buffer = b"".join(pieces) + pad * 40
    assert len(_assert_oracle(patterns, buffer)) > 100


def test_bytes_bytearray_and_memoryview_inputs_agree():
    rng = random.Random(5)
    buffer, patterns = _oracle_case(rng, 3000, 12)
    patterns.append(from_elements(tuple(buffer[100:103])))
    engine = matcher.compile(patterns)
    expected = matcher.scan_all(engine, buffer)
    assert expected
    as_array = bytearray(buffer)
    assert matcher.scan_all(engine, as_array) == expected
    assert matcher.scan_all(engine, memoryview(buffer)) == expected
    assert matcher.scan_all(engine, memoryview(as_array)) == expected
    assert as_array == buffer


def test_word_table_uses_native_byte_order():
    rng = random.Random(64)
    keys = [rng.randbytes(length) for length in (2, 3, 4, 5, 8, 10, 11, 14, 15, 16)]
    engine = matcher.compile([from_elements(tuple(key)) for key in keys])
    assert engine._short_keys == tuple(keys[:6])
    tables = {r: table for r, table, _ in engine._passes}
    for key in keys[6:]:
        assert (0, len(key)) in tables[0][memoryview(key[:8]).cast("Q")[0]]
    # lane l holds byte l of a word as it lies in the buffer, whatever the
    # byte order of the word's value
    lanes = engine._passes[0][2]
    for key in keys[6:]:
        assert all(lanes[lane][key[lane]] == 1 for lane in range(8))


def _group_by_length(keys) -> dict[int, list[bytes]]:
    """Distinct keys by length, in first-seen order, as compile groups them."""
    by_len: dict[int, list[bytes]] = {}
    for key in dict.fromkeys(keys):
        by_len.setdefault(len(key), []).append(key)
    return by_len


# tabled keys (11-16 bytes) cut from one short two-symbol string, so the
# same word recurs at many offsets of keys of many lengths
_SHARED_KEYS = st.tuples(
    st.lists(st.sampled_from([0x00, 0x90]), min_size=16, max_size=40).map(bytes),
    st.lists(st.tuples(st.integers(0, 24), st.integers(11, 16)), min_size=1, max_size=24),
).map(lambda cut: [cut[0][at:at + length] for at, length in cut[1]
                   if at + length <= len(cut[0])]).filter(bool)


# 33 keys of 14 bytes whose values climb by 4: every lane of both
# tables takes over 128 values
_WIDE_KEYS = [bytes((4 * k + i) % 256 for i in range(14)) for k in range(33)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SHARED_KEYS,
                 st.lists(st.binary(min_size=11, max_size=16), min_size=1, max_size=24)))
@example(_WIDE_KEYS)
def test_word_tables_agree_with_per_key_reference(keys):
    by_len = _group_by_length(keys)
    built = matcher._word_tables(by_len)
    reference = engine_reference.word_tables(by_len)
    assert [r for r, _, _ in built] == list(reference)
    for (_, table, lanes), expected in zip(built, reference.values()):
        assert list(table.items()) == list(expected.items())
        assert lanes == engine_reference.lanes(expected)


# -- prefiltered word passes: checked against the oracle ------------------------

_LANE_BYTES = b"\x00\x48\x89\xe5"


def _from_lane_bytes(min_size: int, max_size: int):
    return st.lists(st.sampled_from(_LANE_BYTES), min_size=min_size, max_size=max_size).map(bytes)


@settings(max_examples=200, deadline=None)
@given(anchors=st.lists(_from_lane_bytes(11, 14), min_size=1, max_size=3),
       pieces=st.lists(st.one_of(st.integers(0, 2), _from_lane_bytes(0, 9)), max_size=10),
       kind=st.sampled_from([bytes, bytearray, memoryview]))
# a 12-byte key planted at offsets 0, 13, 26, ..., 91: every offset mod 8
@example(anchors=[b"\x48\x89\xe5\x00" * 3], pieces=[0, b"\x89"] * 8, kind=bytes)
# an 11-byte key in the last alignment-4 word, which starts at byte 12
@example(anchors=[b"\x48\x89\xe5" * 3 + b"\x00\x00"], pieces=[b"\x00" * 9, 0],
         kind=bytearray)
# 11 bytes: no alignment-4 word
@example(anchors=[b"\x89" * 5 + b"\x48" * 6], pieces=[0], kind=memoryview)
# every lane wide: both passes are plain
@example(anchors=_WIDE_KEYS, pieces=[0, b"\x00", 32, 5, b"\x48" * 3, 17], kind=bytes)
def test_prefiltered_word_passes_agree_with_oracle(anchors, pieces, kind):
    """Patterns whose anchors, and so keys, are 11-14 bytes; the buffer
    joins ``pieces``, where an int names an anchor and bytes are filler,
    and is scanned with 0-7 more filler bytes, so its length takes each
    value mod 8.  Anchors of ``_LANE_BYTES`` give lanes of at most 4
    values, so both word passes filter on every lane first."""
    patterns = [from_elements(tuple(anchor)) for anchor in anchors]
    engine = matcher.compile(patterns)
    narrow = set(b"".join(anchors)) <= set(_LANE_BYTES)
    assert [(r, len(lanes)) for r, _, lanes in engine._passes] == \
        [(0, 8 * narrow), (4, 8 * narrow)]
    buffer = b"".join(anchors[p % len(anchors)] if isinstance(p, int) else p for p in pieces)
    for extra in range(8):
        _assert_oracle(patterns, kind(buffer + b"\x89" * extra))


# -- padding keys ------------------------------------------------------------------

RET_PADDING = b"\xc9\xc3" + b"\xcc" * 14  # leave; ret; then int3 padding


def test_padding_key_moves_to_a_second_run_and_scans_like_the_oracle():
    rng = random.Random(14)
    second = rng.randbytes(12)
    keeps = rng.randbytes(10)
    patterns = [from_elements(tuple(RET_PADDING) + (ANY,) * 4 + tuple(second)),
                from_elements(tuple(RET_PADDING) + (ANY,) * 3 + tuple(keeps))]
    engine = matcher.compile(patterns)
    assert [pattern_reference.anchor(expand(pattern)) for pattern in patterns] == \
        [(0, RET_PADDING)] * 2
    # the first key moves to the 12-byte second run; the other pattern's
    # second run is too short to table, so its padding key stays
    assert engine.keys == ((second, 20), (RET_PADDING, 0))
    pieces = []
    for _ in range(40):
        pieces.append(rng.choice([RET_PADDING, RET_PADDING + b"\xcc" * rng.randrange(9),
                                  second, keeps, PROLOGUE]))
        if rng.random() < 0.3:
            pieces.append(rng.choice([RET_PADDING + rng.randbytes(4) + second,
                                      RET_PADDING + rng.randbytes(3) + keeps,
                                      RET_PADDING + rng.randbytes(3) + second]))
    buffer = b"".join(pieces)
    found = _assert_oracle(patterns, buffer)
    assert {sig_idx for sig_idx, _ in found} == {0, 1}


def test_padding_key_moves_inside_its_own_anchor():
    rng = random.Random(15)
    anchor = b"\x5d\xc3" + b"\x90" * 14 + rng.randbytes(16)
    patterns = [from_elements(tuple(anchor) + (ANY, 0x41))]
    engine = matcher.compile(patterns)
    # its first window would be its key, but it is padding
    assert engine.keys == ((anchor[16:], 16),)
    buffer = anchor + b"\x00\x41" + anchor[:16] * 3 + anchor + b"\x07\x41"
    assert len(_assert_oracle(patterns, buffer)) == 2


# -- short keys: one search each, checked against the oracle ------------------

@settings(max_examples=200, deadline=None)
@given(anchors=st.lists(st.binary(min_size=2, max_size=10), min_size=1, max_size=3),
       shifts=st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
       pieces=st.lists(st.one_of(st.integers(0, 2), st.binary(max_size=12)), max_size=12),
       as_array=st.booleans())
# overlapping occurrences
@example(anchors=[b"abab"], shifts=[0], pieces=[0, b"ab"], as_array=False)
# one occurrence at offset 0, one ending at the last byte
@example(anchors=[b"xy"], shifts=[0], pieces=[0, b"zzz", 0], as_array=False)
# one key owned by several signatures at different key offsets
@example(anchors=[b"k3y"], shifts=[0, 2, 5], pieces=[b"pppppp", 0, b"q", 0], as_array=False)
# a bytearray buffer
@example(anchors=[b"abab", b"\x90" * 3], shifts=[0, 1], pieces=[0, b"ab", 1, b"\x90" * 4],
         as_array=True)
def test_short_keys_searched_agree_with_oracle(anchors, shifts, pieces, as_array):
    """Patterns of ``shift`` wildcards then an anchor under 11 bytes; the
    buffer joins ``pieces``, where an int names an anchor and bytes are
    filler."""
    patterns = [from_elements((ANY,) * shift + tuple(anchor))
                for anchor in anchors for shift in shifts]
    engine = matcher.compile(patterns)
    assert engine._passes == () and set(engine._short_keys) == set(anchors)
    buffer = b"".join(anchors[p % len(anchors)] if isinstance(p, int) else p
                      for p in pieces)
    _assert_oracle(patterns, bytearray(buffer) if as_array else buffer)


# -- windowed scans: checked against the oracle ----------------------------------
# iter_windowed_matches reads elf.WINDOW bytes plus the engine's overlap
# at a time; shrunk to a few bytes, the windows cut keys, runs and whole
# patterns, and every match must still come once, from the window where
# it starts.

def _planted(pattern: HexPattern, fill: int) -> bytes:
    """One occurrence of ``pattern``, each byte it leaves open ``fill``."""
    cells = bytearray([fill]) * pattern.span
    for offset, literal in zip(pattern.offsets, pattern.literals):
        cells[offset:offset + len(literal)] = literal
    return bytes(cells)


def _assert_windowed_oracle(patterns, buffer: bytes, window: int) -> int:
    """Check one windowed scan against the oracle; return how many
    windows it read."""
    engine = matcher.compile(patterns)
    reads = []

    def read_at(offset, length):
        reads.append((offset, length))
        return buffer[offset:offset + length]

    with mock.patch.object(elf, "WINDOW", window):
        found = list(matcher.iter_windowed_matches(engine, read_at, len(buffer)))
    expected = naive_scan_once(patterns, buffer)
    assert len(found) == len(pairs(found)) and pairs(found) == expected
    assert all(m.span == patterns[m.signature_id].span for m in found)
    # a window starts every WINDOW bytes, reads at most the overlap more,
    # and the last one, the only one cut short, reaches the end
    assert [offset for offset, _ in reads] == list(range(0, window * len(reads), window))
    assert all(length == window + engine.overlap for _, length in reads[:-1])
    assert sum(reads[-1]) == len(buffer) and reads[-1][1] <= window + engine.overlap
    return len(reads)


# (anchor, wildcards before it, gap after it, literal after the gap)
_WINDOWED_PATTERN = st.tuples(st.binary(min_size=2, max_size=18), st.integers(0, 3),
                              st.integers(0, 40), st.binary(min_size=1, max_size=3))


def _windowed_pattern(anchor: bytes, shift: int, gap: int, tail: bytes) -> HexPattern:
    elements = (ANY,) * shift + tuple(anchor)
    return from_elements(elements + ((Gap(gap),) + tuple(tail) if gap else ()))


@settings(max_examples=300, deadline=None)
@given(window=st.integers(1, 24), specs=st.lists(_WINDOWED_PATTERN, min_size=1, max_size=3),
       pieces=st.lists(st.one_of(st.integers(0, 2), st.binary(max_size=30)), max_size=10))
# a match starting at a window's last byte, and one at the next window's first
@example(window=8, specs=[(b"\x48\x89\xe5", 0, 0, b"")], pieces=[b"\x00" * 7, 0, 0])
# a 16-byte key across an edge, and a span of 61 bytes over 8-byte windows
@example(window=8, specs=[(bytes(range(1, 17)), 2, 40, b"\xc3")], pieces=[b"\x00" * 5, 0, 0])
# a match ending at the last byte of a buffer the first window covers
@example(window=24, specs=[(b"ab", 0, 0, b"")], pieces=[b"zz", 0])
def test_windowed_scan_agrees_with_oracle(window, specs, pieces):
    """Patterns drawn as ``(anchor, shift, gap, tail)``, spans up to 64
    bytes against windows of 1-24; the buffer joins ``pieces``, where an
    int plants one occurrence of a pattern and bytes are filler."""
    patterns = [_windowed_pattern(*spec) for spec in specs]
    buffer = b"".join(_planted(patterns[p % len(patterns)], 0x5A) if isinstance(p, int) else p
                      for p in pieces)
    _assert_windowed_oracle(patterns, buffer, window)


def test_windowed_scan_reads_a_buffer_that_fits_a_window_once():
    patterns = [from_elements(CALL_STUB_ELEMENTS)]
    buffer = CALL_STUB_TEXT * 3
    # the buffer, or all but the overlap of it, in one window
    for window in (1 << 20, len(buffer), len(buffer) - len(CALL_STUB_TEXT) + 1):
        assert _assert_windowed_oracle(patterns, buffer, window) == 1
    assert _assert_windowed_oracle(patterns, buffer, len(buffer) - len(CALL_STUB_TEXT)) == 2
    # the overlap is the longest span less one, whichever pattern holds it
    assert matcher.compile(patterns + [from_elements(b"ab")]).overlap == len(CALL_STUB_TEXT) - 1
    assert matcher.compile([]).overlap == 0


# -- .comment strings ------------------------------------------------------------

def test_match_comment_vendor_string():
    vendor = b"GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-50)"
    engine = matcher.compile([from_elements(tuple(vendor))])
    comment = vendor + b"\x00"
    assert pairs(matcher.scan_all(engine, comment)) == {(0, 0)}
    assert pairs(matcher.scan_all(engine, b"")) == set()
    doubled = vendor + b"\x00" + vendor + b"\x00"
    assert pairs(matcher.scan_all(engine, doubled)) == {(0, 0), (0, len(vendor) + 1)}


# -- oracle equivalence ----------------------------------------------------------

def _random_pattern(rng: random.Random, source: bytes | None = None) -> HexPattern:
    """A well-formed pattern, optionally sampled from source bytes."""
    if source is not None and len(source) >= 20 and rng.random() < 0.7:
        length = rng.randrange(16, min(len(source), 120) + 1)
        start = rng.randrange(0, len(source) - length + 1)
        body = list(source[start:start + length])
    else:
        length = rng.randrange(16, 80)
        body = [rng.randrange(256) for _ in range(length)]
    elements: list = list(body)
    # poke wildcard holes, keeping the edges literal
    for _ in range(rng.randrange(0, 4)):
        pos = rng.randrange(1, len(elements) - 1)
        if isinstance(elements[pos], int):
            elements[pos] = ANY
    if rng.random() < 0.4 and len(elements) >= 24:
        cut = rng.randrange(8, len(elements) - 8)
        gap = rng.randrange(1, 12)
        if isinstance(elements[cut - 1], int) and isinstance(elements[cut], int):
            elements = elements[:cut] + [Gap(gap)] + elements[cut:]
    if pattern_reference.anchor(elements) is None:
        return from_elements(body)
    return from_elements(elements)


def _oracle_case(rng: random.Random, buf_size: int, n_patterns: int):
    buffer = bytearray(rng.randbytes(buf_size))
    patterns = []
    for _ in range(n_patterns):
        patterns.append(_random_pattern(rng, bytes(buffer)))
    # plant a few extra occurrences so matches are not vanishingly rare
    for pattern in patterns[: max(1, n_patterns // 4)]:
        if pattern.span < buf_size:
            start = rng.randrange(0, buf_size - pattern.span)
            for off, literal in zip(pattern.offsets, pattern.literals):
                buffer[start + off:start + off + len(literal)] = literal
    return bytes(buffer), patterns


@pytest.mark.parametrize("seed", range(6))
def test_oracle_equivalence_randomized(seed):
    rng = random.Random(1000 + seed)
    for _ in range(40):
        buf_size = rng.randrange(64, 3000)
        n_patterns = rng.randrange(1, 17)
        buffer, patterns = _oracle_case(rng, buf_size, n_patterns)
        engine = matcher.compile(patterns)
        assert pairs(matcher.scan_all(engine, buffer)) == \
            naive_scan_once(patterns, buffer)
    

def test_oracle_equivalence_thousand_unplanted_patterns():
    rng = random.Random(77)
    buffer = rng.randbytes(65536)
    patterns = [from_elements(tuple(rng.randrange(256) for _ in range(16)))
                for _ in range(1000)]
    engine = matcher.compile(patterns)
    assert pairs(matcher.scan_all(engine, buffer)) == \
        naive_scan_once(patterns, buffer)


def test_determinism_under_signature_permutation():
    rng = random.Random(9)
    buffer, patterns = _oracle_case(rng, 4096, 12)
    engine = matcher.compile(patterns)
    baseline = {(patterns[m.signature_id], m.start)
                for m in matcher.scan_all(engine, buffer)}
    shuffled = patterns[:]
    rng.shuffle(shuffled)
    engine2 = matcher.compile(shuffled)
    permuted = {(shuffled[m.signature_id], m.start)
                for m in matcher.scan_all(engine2, buffer)}
    assert baseline == permuted

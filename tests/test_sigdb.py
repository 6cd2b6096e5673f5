"""sigdb module: .sig serialization, parsing, directory loading."""

from __future__ import annotations

import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provsig.sigdb import (
    TARGET_COMMENT,
    TARGET_DYNLIB,
    TARGET_TEXT,
    Database,
    HexPattern,
    MalformedSigFile,
    Signature,
    SignatureFile,
    UnwritableSigFile,
    load_db,
    parse_pattern_text,
    parse_sigfile,
    write_sigfile,
)

from pattern_reference import ANY, Gap, anchor, from_elements, well_formed

CALL_STUB_PAYLOAD = "554889e54883ec10bf0a000000e8????????488945f8c9c3"


def _hex_sig(name: str, elements, target: str = TARGET_TEXT) -> Signature:
    return Signature(name=name, target=target, pattern=from_elements(elements))


def _md5_sig(name: str, digest: str = "d41d8cd98f00b204e9800998ecf8427e",
             size: int = 0) -> Signature:
    return Signature(name=name, target=TARGET_DYNLIB, digest=digest, text_size=size)


def test_write_md5_signature_line():
    sf = SignatureFile("ACML", "4.4.0", (_md5_sig("libacml.so:.text", "ab" * 16, 4096),))
    text = write_sigfile(sf).decode()
    assert text.splitlines() == [
        "provsig 1",
        "package ACML",
        "version 4.4.0",
        "libacml.so:.text:dynlib:md5:" + "ab" * 16 + ":4096",
    ]


def test_write_call_stub_payload():
    elements = tuple(bytes.fromhex("554889e54883ec10bf0a000000e8")) \
        + (ANY, ANY, ANY, ANY) + tuple(bytes.fromhex("488945f8c9c3"))
    sf = SignatureFile("X", "1", (_hex_sig("stub.o:.text", elements),))
    last = write_sigfile(sf).decode().splitlines()[-1]
    assert last == f"stub.o:.text:text:hex:{CALL_STUB_PAYLOAD}"


def test_write_holds_the_text_at_most_twice_and_a_half_over():
    # some 1 MB of .sig text in 160-byte patterns: the line strings, the
    # joined text and its encoded copy are never all alive at once
    sf = SignatureFile("P", "1", tuple(
        Signature(name=f"libx.a/m{i}.o:.text", target=TARGET_TEXT,
                  pattern=parse_pattern_text(i.to_bytes(4, "little").hex() * 39 + "????"))
        for i in range(3000)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blob = write_sigfile(sf)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(blob) > 1_000_000
    assert peak < 2.5 * len(blob)


def test_write_header_only_file_is_valid():
    sf = SignatureFile("Empty Package", "0", ())
    parsed = parse_sigfile(write_sigfile(sf))
    assert parsed == sf


def test_round_trip_with_colons_in_name():
    sf = SignatureFile("GNU Compiler Collection", "4.4.3", (
        _hex_sig("libfoo.a/bar.o:.text.baz", (0x55, ANY, Gap(3), 0xC3, 0xC3)),
        _hex_sig("a.out:.comment.0", tuple(b"GCC: 4.4"), target=TARGET_COMMENT),
        _md5_sig("libm.so.6:.text", "0123456789abcdef0123456789abcdef", 77),
    ))
    parsed = parse_sigfile(write_sigfile(sf))
    assert parsed == sf
    # one str object per target name, not one per line read
    targets = (TARGET_TEXT, TARGET_COMMENT, TARGET_DYNLIB)
    assert all(sig.target is target
               for sig, target in zip(parsed.signatures, targets, strict=True))


_name_chars = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=24).filter(lambda s: not s.startswith("#"))
_elements = st.lists(
    st.one_of(st.integers(min_value=0, max_value=255),
              st.just(ANY),
              st.builds(Gap, st.integers(min_value=1, max_value=40))),
    min_size=1, max_size=30)
# what a .sig file may hold: a hex line without an anchor is refused
_anchored = _elements.filter(lambda elements: well_formed(elements)
                             and anchor(elements) is not None)


@settings(max_examples=200)
@given(st.lists(st.tuples(_name_chars, _anchored),
                min_size=0, max_size=5, unique_by=lambda t: t[0]),
       _name_chars, _name_chars.filter(lambda s: ":" not in s))
def test_round_trip_property(sig_specs, package, version):
    package = package.replace(":", "_")
    signatures = tuple(_hex_sig(name, tuple(elements))
                       for name, elements in sig_specs)
    sf = SignatureFile(package, version, signatures)
    assert parse_sigfile(write_sigfile(sf)) == sf


def test_parse_rejects_odd_hex():
    data = b"provsig 1\npackage P\nversion 1\nn:text:hex:abc\n"
    with pytest.raises(MalformedSigFile):
        parse_sigfile(data)


def test_parse_rejects_zero_gap():
    data = b"provsig 1\npackage P\nversion 1\nn:text:hex:aabb{0}ccdd\n"
    with pytest.raises(MalformedSigFile):
        parse_sigfile(data)


_NO_ANCHOR = "has no anchor (no literal run of two bytes or more)"


# the texts sigscan prints as DB warnings, word for word
@pytest.mark.parametrize("payload, message", [
    ("AA bb", "line 4: bad token at offset 0: 'AA bb'"),
    ("a a", "line 4: bad hex run 'a a'"),
    ("aa{0}bb", "line 4: gap length must be >= 1"),
    ("aa\tbb", "line 4: bad token at offset 2: '\\tbb'"),
    ("aa{3}{4}bb", "line 4: adjacent gaps"),
    ("{3}aabb", "line 4: pattern must not start or end with a gap"),
    ("aa???bb", "line 4: bad token at offset 4: '?bb'"),
    ("41??42", f"line 4: pattern {_NO_ANCHOR}"),
    ("????", f"line 4: pattern {_NO_ANCHOR}"),
    ("41{3}42", f"line 4: pattern {_NO_ANCHOR}"),
])
def test_parse_pattern_error_texts(payload, message):
    data = f"provsig 1\npackage P\nversion 1\nn:text:hex:{payload}\n".encode()
    with pytest.raises(MalformedSigFile) as caught:
        parse_sigfile(data)
    assert str(caught.value) == message


# lines at the edges of the one-step read of a signature line, with the
# record parse_sigfile makes of each, none for a comment, or the text of
# the MalformedSigFile it raises
@pytest.mark.parametrize("line, outcome", [
    ("n:text:hex:aa bb{2}cc",
     Signature("n", TARGET_TEXT, HexPattern(5, (0, 4), (b"\xaa\xbb", b"\xcc"), ((2, 2),)))),
    ("n:comment:hex:aa bb ?? cc",
     Signature("n", TARGET_COMMENT, HexPattern(4, (0, 3), (b"\xaa\xbb", b"\xcc"), ()))),
    ("n:text:hex:aaBB", "line 4: bad token at offset 2: 'BB'"),
    ("n:comment:hex:47??43", f"line 4: pattern {_NO_ANCHOR}"),
    ("  #n:text:hex:aabb", None),
    ("\t\u3000# n:text:hex:aabb", None),
    ("lib.a/x.o:.text:text:hex:aabb",
     Signature("lib.a/x.o:.text", TARGET_TEXT, HexPattern(2, (0,), (b"\xaa\xbb",), ()))),
    ("a:hex:b:comment:hex:aabb",
     Signature("a:hex:b", TARGET_COMMENT, HexPattern(2, (0,), (b"\xaa\xbb",), ()))),
    (":text:hex:aabb", "line 4: empty signature name"),
    (":text:hex:aa bb", "line 4: empty signature name"),
    (":text:hex:a a", "line 4: bad hex run 'a a'"),
    ("n:dynlib:hex:aabb", "line 4: bad hex target 'dynlib'"),
    ("n:text:hex:aa:bb", "line 4: unrecognized signature line"),
    ("lib.so:.text:dynlib:md5:" + "ab" * 16 + ":4096",
     Signature("lib.so:.text", TARGET_DYNLIB, None, "ab" * 16, 4096)),
    ("dynlib:md5:" + "ab" * 16 + ":4096", "line 4: unrecognized signature line"),
    (":dynlib:md5:" + "ab" * 16 + ":4096", "line 4: empty signature name"),
    (":dynlib:md5:xyz:1", "line 4: bad md5 digest 'xyz'"),
    ("n:dynlib:md5:xyz:ten", "line 4: bad md5 digest 'xyz'"),
    ("n:dynlib:md5:" + "a" * 31 + ":ten", "line 4: bad md5 digest '" + "a" * 31 + "'"),
    ("n:text:md5:xyz:ten", "line 4: bad md5 target 'text'"),
], ids=["spaced", "spaced-wildcards", "uppercase", "comment-without-anchor",
        "comment-after-blanks",
        "comment-after-unicode-blanks", "name-with-colons", "name-with-kind", "empty-name",
        "empty-name-spaced", "empty-name-bad-pattern", "hex-under-dynlib", "colon-in-payload",
        "md5-name-with-colons", "md5-without-target", "md5-empty-name",
        "md5-bad-digest-before-empty-name", "md5-bad-digest-before-size",
        "md5-short-digest-before-size",
        "md5-bad-target-first"])
def test_parse_line_at_the_edges_of_the_one_step_read(line, outcome):
    data = f"provsig 1\npackage P\nversion 1\n{line}\n".encode()
    if isinstance(outcome, str):
        with pytest.raises(MalformedSigFile) as caught:
            parse_sigfile(data)
        assert str(caught.value) == outcome
        return
    signatures = parse_sigfile(data).signatures
    assert signatures == (() if outcome is None else (outcome,))
    for sig in signatures:
        assert type(sig) is Signature
        if sig.target == TARGET_DYNLIB:
            assert type(sig.text_size) is int
        else:
            assert type(sig.pattern) is HexPattern


def test_parse_rejects_missing_package():
    with pytest.raises(MalformedSigFile, match="package"):
        parse_sigfile(b"provsig 1\nversion 1\n")


def test_parse_rejects_missing_version():
    with pytest.raises(MalformedSigFile, match="version"):
        parse_sigfile(b"provsig 1\npackage P\n")


def test_parse_rejects_duplicate_names():
    data = (b"provsig 1\npackage P\nversion 1\n"
            b"same:text:hex:aabb\nsame:text:hex:ccdd\n")
    with pytest.raises(MalformedSigFile, match="duplicate"):
        parse_sigfile(data)


def test_parse_rejects_bad_magic():
    with pytest.raises(MalformedSigFile):
        parse_sigfile(b"sigfile 2\npackage P\nversion 1\n")


def test_parse_rejects_bad_md5_payload():
    base = b"provsig 1\npackage P\nversion 1\n"
    with pytest.raises(MalformedSigFile):
        parse_sigfile(base + b"n:dynlib:md5:short:10\n")
    with pytest.raises(MalformedSigFile):
        parse_sigfile(base + b"n:dynlib:md5:" + b"g" * 32 + b":10\n")
    with pytest.raises(MalformedSigFile):
        parse_sigfile(base + b"n:dynlib:md5:" + b"a" * 32 + b":ten\n")


@pytest.mark.parametrize("line", [
    "n:text:hex:aabbcc{\u00b2}ddeeff",
    "n:dynlib:md5:" + "a" * 32 + ":1\u00b2",
    pytest.param("n:dynlib:md5:" + "a" * 32 + ":" + "1" * 5000,
                 id="size-beyond-int-digit-limit"),
])
def test_parse_rejects_non_ascii_or_oversized_numbers(line, tmp_path):
    data = ("provsig 1\npackage P\nversion 1\n" + line + "\n").encode("utf-8")
    with pytest.raises(MalformedSigFile):
        parse_sigfile(data)
    _write_db(tmp_path, [("a.sig", SignatureFile("A", "1", ()))])
    (tmp_path / "b.sig").write_bytes(data)
    db = load_db(tmp_path)
    assert [sf.package for sf in db.files] == ["A"]
    assert len(db.warnings) == 1 and "b.sig" in db.warnings[0]


# Values that replace gap lengths and md5 text sizes: zero, negative,
# empty, past 32 bits, past int()'s digit limit, and non-ASCII digits.
_EXTREME_NUMBERS = ("0", "-1", "", "4294967296", "9" * 5000, "\u00b2", "\u0661", " 7")
_NUMBER = re.compile(r"(?<=\{)[0-9]+(?=\})|(?<=:)[0-9]+$", re.MULTILINE)
_any_sig = st.one_of(
    st.builds(lambda name, elements, target: _hex_sig(name, tuple(elements), target),
              _name_chars, _anchored, st.sampled_from((TARGET_TEXT, TARGET_COMMENT))),
    st.builds(_md5_sig, _name_chars, st.text("0123456789abcdef", min_size=32, max_size=32),
              st.integers(min_value=0, max_value=2 ** 40)))


@settings(max_examples=150, deadline=None)
@given(st.lists(_any_sig, max_size=4, unique_by=lambda sig: sig.name), st.data())
def test_parse_sigfile_mutations_raise_only_malformed(signatures, data):
    text = write_sigfile(SignatureFile("P", "1", tuple(signatures))).decode()
    text = _NUMBER.sub(
        lambda m: data.draw(st.sampled_from((m.group(),) + _EXTREME_NUMBERS)), text)
    blob = bytearray(text.encode())
    for pos, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                                  st.integers(1, 255)), max_size=4)):
        blob[pos] ^= mask
    cut = data.draw(st.one_of(st.none(), st.integers(0, len(blob))))
    if cut is not None:
        del blob[cut:]
    try:
        parsed = parse_sigfile(bytes(blob))
    except MalformedSigFile:
        return
    assert isinstance(parsed, SignatureFile)


def test_md5_owners_first_record_in_load_order_wins(tmp_path):
    digest = "ab" * 16
    _write_db(tmp_path, [
        ("a.sig", SignatureFile("A", "1", (_md5_sig("x.so", digest, 10),))),
        ("b.sig", SignatureFile("B", "2", (_md5_sig("y.so", digest, 10),
                                           _md5_sig("z.so", digest, 11)))),
    ])
    owners = load_db(tmp_path).md5_owners
    assert owners[(digest, 10)].package == "A"
    assert owners[(digest, 11)].package == "B"
    assert len(owners) == 2


def test_parse_skips_comments_blanks_and_unknown_keys():
    data = (b"provsig 1\n# generated by siggen\npackage P\n\n"
            b"flavor extended\nversion 2\nn:text:hex:aabb\n")
    parsed = parse_sigfile(data)
    assert parsed.package == "P"
    assert parsed.version == "2"
    assert len(parsed.signatures) == 1


def test_parse_md5_wrong_target():
    data = b"provsig 1\npackage P\nversion 1\nn:text:md5:" + b"a" * 32 + b":1\n"
    with pytest.raises(MalformedSigFile):
        parse_sigfile(data)


def test_write_rejects_invalid_files(tmp_path):
    with pytest.raises(UnwritableSigFile):
        write_sigfile(SignatureFile("", "1", ()))
    with pytest.raises(UnwritableSigFile):
        write_sigfile(SignatureFile("P", "1",
                                    (_hex_sig("a", (1, 2)), _hex_sig("a", (3, 4)))))
    for package in ("P:Q", "P\x85Q", "P\x0cQ"):
        with pytest.raises(UnwritableSigFile):
            write_sigfile(SignatureFile(package, "1", ()))
    for name in ("#note", " #note", "\t\u3000#note", "a\x0bb", "a\u2029b", "a\udcffb"):
        with pytest.raises(UnwritableSigFile):
            write_sigfile(SignatureFile("P", "1", (_hex_sig(name, (1, 2)),)))
    with pytest.raises(UnwritableSigFile, match="bad target 'data'"):
        write_sigfile(SignatureFile("P", "1", (_hex_sig("a", (1, 2), target="data"),)))


def test_write_goes_through_a_link_and_names_the_destination_it_fails(tmp_path):
    # the file is written beside its destination and renamed over it:
    # a link to it stays a link, and an error names the destination
    sf = SignatureFile("P", "1", (_hex_sig("a", (1, 2)),))
    (tmp_path / "real").mkdir()
    (tmp_path / "link.sig").symlink_to("real/p.sig")
    blob = write_sigfile(sf, tmp_path / "link.sig")
    assert (tmp_path / "link.sig").is_symlink()
    assert (tmp_path / "real" / "p.sig").read_bytes() == blob
    for destination, error in ((tmp_path / "no" / "p.sig", FileNotFoundError),
                               (tmp_path / "real", IsADirectoryError)):
        with pytest.raises(error, match=re.escape(f": {str(destination)!r}")):
            write_sigfile(sf, destination)
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["link.sig", "p.sig", "real"]


@pytest.mark.parametrize("sig", [
    Signature("a", TARGET_DYNLIB, digest="ABC", text_size=1),
    _md5_sig("a", size=-1),
    Signature("a", TARGET_DYNLIB),
    Signature("a", TARGET_TEXT),
    _md5_sig("a", "a" * 32, 10 ** 5000),
], ids=["short-uppercase-digest", "negative-text-size", "no-digest", "no-pattern",
        "text-size-beyond-int-digit-limit"])
def test_write_refuses_record_that_reads_back_otherwise(sig, tmp_path):
    sf = SignatureFile("P", "1", (_md5_sig("ok"), sig))
    with pytest.raises(UnwritableSigFile, match="signature 'a'"):
        write_sigfile(sf, tmp_path / "p.sig")
    assert not (tmp_path / "p.sig").exists()


@pytest.mark.parametrize("pattern", [
    HexPattern(5, (3,), (b"ab",), ((0, 3),)),  # a gap first: {3}6162
    HexPattern(5, (0,), (b"ab",), ((2, 3),)),  # a gap last
    HexPattern(4, (0, 2), (b"ab", b"cd"), ()),  # runs that abut read back as one
    HexPattern(4, (0, 1), (b"ab", b"cd"), ()),  # runs that overlap
    HexPattern(4, (0, 2, 3), (b"a", b"", b"d"), ()),  # an empty run
    HexPattern(9, (0, 7), (b"ab", b"cd"), ((2, 2), (4, 3))),  # gaps that abut
    HexPattern(9, (0, 7), (b"ab", b"cd"), ((1, 3),)),  # a gap over a run
    HexPattern(9, (0, 7), (b"ab", b"cd"), ((3, 5),)),  # a gap over a run
    HexPattern(9, (0, 7), (b"ab", b"cd"), ((3, 0),)),  # an empty gap
    HexPattern(4, (3,), (b"ab",), ()),  # a run past the span
    HexPattern(4, (-1,), (b"ab",), ()),  # a run before it
    HexPattern(9, (0, 7), (b"ab", b"cd"), ((3, 2), (10, 1))),  # a gap past it
    HexPattern(9, (0, 7), (b"ab", b"cd"), ((4, 2), (2, 1))),  # gaps out of order
    HexPattern(9, (0,), (b"ab", b"cd"), ()),  # a run without its offset
    HexPattern(0, (), (), ()),  # nothing
    # no anchor: the reader would refuse the line
    from_elements((0x41, ANY, 0x42)),
    from_elements((0x41, Gap(3), 0x42)),
    from_elements((ANY, ANY)),
])
def test_write_refuses_pattern_that_reads_back_otherwise(pattern, tmp_path):
    sf = SignatureFile("P", "1", (Signature("ok", TARGET_TEXT, from_elements((1, 2))),
                                  Signature("bad", TARGET_TEXT, pattern)))
    with pytest.raises(UnwritableSigFile, match="signature 'bad'"):
        write_sigfile(sf, tmp_path / "p.sig")
    assert not (tmp_path / "p.sig").exists()


_SMALL = st.integers(-2, 24)
_ANY_PATTERN = st.builds(
    HexPattern, _SMALL, st.lists(_SMALL, max_size=4).map(tuple),
    st.lists(st.binary(max_size=4), max_size=4).map(tuple),
    st.lists(st.tuples(_SMALL, st.integers(-1, 6)), max_size=3).map(tuple))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ANY_PATTERN, _elements.filter(well_formed).map(from_elements)))
def test_any_pattern_is_refused_or_reads_back_as_written(pattern):
    sf = SignatureFile("P", "1", (Signature("s", TARGET_TEXT, pattern),))
    try:
        blob = write_sigfile(sf)
    except UnwritableSigFile:
        return
    assert parse_sigfile(blob) == sf


_ANY_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from("#: \t\n\r\x0b\x0c\x1c\x85\u2028\u3000a"),
    st.characters(codec="utf-8")), max_size=8)


@settings(max_examples=400)
@given(_ANY_TEXT, _ANY_TEXT, st.lists(_ANY_TEXT, max_size=3))
def test_whatever_writes_reads_back_as_written(package, version, names):
    sf = SignatureFile(package, version, tuple(_hex_sig(name, (1, 2)) for name in names))
    try:
        blob = write_sigfile(sf)
    except UnwritableSigFile:
        return
    assert parse_sigfile(blob) == sf


# -- load_db ---------------------------------------------------------------------

def _write_db(tmp_path, files):
    for name, sf in files:
        write_sigfile(sf, tmp_path / name)


def test_load_db_three_files(tmp_path):
    files = [(f"p{i}.sig", SignatureFile(f"P{i}", "1", (_hex_sig("s", (1, 2, 3)),)))
             for i in range(3)]
    _write_db(tmp_path, files)
    db = load_db(tmp_path)
    assert [sf.package for sf in db.files] == ["P0", "P1", "P2"]
    assert sum(len(sf.signatures) for sf in db.files) == 3
    assert list(enumerate(sf.package for sf in db.files for _ in sf.signatures)) == \
        [(0, "P0"), (1, "P1"), (2, "P2")]


def test_load_db_skips_corrupt_file_with_warning(tmp_path):
    _write_db(tmp_path, [("a.sig", SignatureFile("A", "1", ())),
                         ("c.sig", SignatureFile("C", "1", ()))])
    (tmp_path / "b.sig").write_bytes(b"not a signature file\n")
    db = load_db(tmp_path)
    assert [sf.package for sf in db.files] == ["A", "C"]
    assert len(db.warnings) == 1
    assert "b.sig" in db.warnings[0]


def test_load_db_empty_directory(tmp_path):
    assert load_db(tmp_path) == Database(files=(), warnings=(), md5_owners={})


def test_load_db_all_corrupt(tmp_path):
    (tmp_path / "x.sig").write_bytes(b"garbage")
    (tmp_path / "y.sig").write_bytes(b"provsig 1\npackage Y\n")
    # nothing loads: the empty database, with why each file was skipped,
    # in load order
    assert load_db(tmp_path) == Database(
        files=(), warnings=("x.sig: missing 'provsig 1' magic line",
                            "y.sig: missing version key"), md5_owners={})


def test_load_db_deterministic_id_assignment(tmp_path):
    # write in one order, ids follow sorted file names regardless
    _write_db(tmp_path, [
        ("zz.sig", SignatureFile("Z", "1", (_hex_sig("z1", (1, 2)),))),
        ("aa.sig", SignatureFile("A", "1", (_hex_sig("a1", (3, 4)),
                                            _hex_sig("a2", (5, 6))))),
    ])
    db1 = load_db(tmp_path)
    db2 = load_db(tmp_path)
    assert db1 == db2
    assert list(enumerate((sig.name, sf.package) for sf in db1.files for sig in sf.signatures)) \
        == [(0, ("a1", "A")), (1, ("a2", "A")), (2, ("z1", "Z"))]
    assert sum(len(sf.signatures) for sf in db1.files) == 3


def test_load_db_ignores_non_sig_files(tmp_path):
    _write_db(tmp_path, [("real.sig", SignatureFile("R", "1", ()))])
    (tmp_path / "README.txt").write_text("not signatures")
    assert [sf.package for sf in load_db(tmp_path).files] == ["R"]

"""ResponseData.from_text and the written-layout check it starts with,
against a line-by-line parser that numpy-checks the cells of every row."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinaq import ResponseData
from dinaq.simulator import _written_layout

# The code points at which str.splitlines() breaks and those str.isspace()
# (and so str.strip()) accepts, which the strategies draw from. They are
# written out because deriving them scans all 0x110000 code points; a test
# checks both sets against Python's.
_LINE_BREAKS = (0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x85, 0x2028, 0x2029)
_WHITESPACE = (
    0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0, 0x1680,
    *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
)


def reference_from_text(text: str) -> ResponseData:
    """The line-by-line parser, kept as the reference implementation."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or not lines[0].startswith("m="):
        raise ValueError('response text must start with an "m=<m>" header')
    try:
        m = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad response header {lines[0]!r}") from exc
    body = lines[1:]
    if not body:
        raise ValueError("response file has no subject rows")
    # rows are nonblank, so with m <= 0 every row has the wrong length
    wrong_len = np.flatnonzero(np.fromiter(map(len, body), np.int64, len(body)) != m)
    first_bad = int(wrong_len[0]) if wrong_len.size else len(body)
    if first_bad:
        # one code point per cell; "0" and "1" are 48 and 49, anything
        # else wraps or lands above 1 after the subtraction
        cells = np.array(body[:first_bad], dtype=f"<U{m}").view(np.uint32)
        cells = cells.reshape(first_bad, m) - 48
        bad_char = np.flatnonzero((cells > 1).any(axis=1))
        if bad_char.size:
            first_bad = int(bad_char[0])
    if first_bad < len(body):
        raise ValueError(
            f"bad response row {body[first_bad]!r} (expected {m} binary characters)"
        )
    return ResponseData(cells.astype(np.uint8))


def _outcome(parse, text):
    try:
        values = parse(text).values
    except ValueError as exc:
        return "error", str(exc)
    return values.dtype, values.shape, values.tobytes()


def test_code_point_sets_are_pythons():
    chars = [chr(c) for c in range(0x110000)]
    assert set(_WHITESPACE) == {ord(ch) for ch in chars if ch.isspace()}
    assert set(_LINE_BREAKS) == {ord(ch) for ch in chars if len(f"a{ch}b".splitlines()) == 2}
    assert len(_WHITESPACE) == 29 and len(_LINE_BREAKS) == 10


SPACES = [chr(c) for c in _WHITESPACE]
BREAKS = [chr(c) for c in _LINE_BREAKS]
# NUL, a letter, fullwidth and superscript digit ones, a lone surrogate
ODD = ["\x00", "x", "\uff11", "\u00b9", "\ud800"]
ALPHABET = ["0", "1", *SPACES, *ODD]


@st.composite
def response_texts(draw, ascii_only):
    def pick(chars):
        return st.sampled_from([ch for ch in chars if ch.isascii() or not ascii_only])

    m = draw(st.integers(-1, 5))
    header = draw(st.sampled_from([f"m={m}", f"m={m}", f"m= {m}", f"m={m}x", f"{m}"]))
    rows = st.tuples(
        st.text(pick(SPACES), max_size=1),
        st.text(st.sampled_from("01"), min_size=max(m, 0), max_size=max(m, 0)),
        pick(BREAKS),
    ).map("".join)
    pieces = draw(st.lists(st.one_of(rows, rows, pick(ALPHABET), pick(BREAKS)), min_size=1, max_size=20))
    text = draw(st.text(pick(SPACES), max_size=2)) + header + draw(pick(BREAKS))
    text += "".join(pieces)
    if not ascii_only:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(pick(["\x85", "\u2001", "\u3000", "\uff11", "\ud800"])) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(response_texts(ascii_only=True))
def test_from_text_matches_reference_ascii(text):
    assert text.isascii()
    assert _outcome(ResponseData.from_text, text) == _outcome(reference_from_text, text)


@settings(max_examples=400, deadline=None)
@given(response_texts(ascii_only=False))
def test_from_text_matches_reference_non_ascii(text):
    assert not text.isascii()
    assert _outcome(ResponseData.from_text, text) == _outcome(reference_from_text, text)


@pytest.mark.parametrize("n, m", [(1, 1), (300, 5), (2000, 12)])
def test_from_text_matches_reference_on_to_text(n, m):
    text = ResponseData(np.random.default_rng(n + m).integers(0, 2, (n, m))).to_text()
    body = text.partition("\n")[2]
    last = len(text) - 2  # the last cell
    shift = len(text) - m - 2  # the newline that ends the next-to-last row
    near_misses = (
        text[:-1],  # no final newline
        text + "\n",  # one extra trailing newline
        text[:last] + "2" + text[last + 1 :],  # one cell "2"
        text[:last] + "\x00" + text[last + 1 :],  # a NUL in a cell
        text[:-2] + "\n",  # the last row a byte short
        f"m=0{m}\n" + body,  # a header that does not spell m canonically
        f"m={m + 1}\n" + body,  # a header that disagrees with the rows
        # the next-to-last row a byte short and the last a byte long
        text[: shift - 1] + "\n" + text[shift - 1] + text[shift + 1 :],
    )
    assert _written_layout(text) is not None
    for variant in near_misses:
        assert _written_layout(variant) is None
    for variant in (text, text.replace("\n", "\r\n"), text.replace("\n", " \n\t"), *near_misses):
        assert _outcome(ResponseData.from_text, variant) == _outcome(reference_from_text, variant)


def _layout(raw):
    cells = _written_layout(raw)
    return None if cells is None else (cells.shape, cells.tobytes())


@settings(max_examples=300, deadline=None)
@given(response_texts(ascii_only=True))
def test_written_layout_same_on_bytes_and_text(text):
    assert _layout(text.encode("ascii")) == _layout(text)


@pytest.mark.parametrize("n, m", [(1, 1), (300, 5), (2000, 12), (40, 20)])
def test_written_layout_on_bytes(n, m):
    """The layout read from a file's bytes: the cells of ``to_text``, as a
    view of one buffer with the newline column hidden; and the byte-level
    near misses, which only a decode and the line loop of ``from_text`` may
    take, are refused."""
    data = ResponseData(np.random.default_rng(n * m).integers(0, 2, (n, m)))
    raw = data.to_text().encode("ascii")
    cells = _written_layout(raw)
    assert cells.dtype == np.uint8 and np.array_equal(cells, data.values)
    assert cells.strides == (m + 1, 1) and cells.base is not None
    assert _layout(raw) == _layout(data.to_text())
    last = len(raw) - 2  # the last cell
    near_misses = (
        raw[:-1] + b"\r\n",  # a CR before the final LF
        raw.replace(b"\n", b"\r\n"),  # every line in CRLF
        raw[:last] + b"3" + raw[last + 1 :],  # one cell "3"
        raw[:last] + b"\xb1" + raw[last + 1 :],  # a byte >= 0x80: "1" with its top bit set
        raw[:last] + b"\xe9" + raw[last + 1 :],  # a Latin-1 letter
        raw[:last] + b"\x00" + raw[last + 1 :],  # a NUL in a cell
        raw[:-1] + b"\x00",  # a NUL in place of the last newline
        raw[:-1],  # no final newline
        b"\xef\xbb\xbf" + raw,  # a UTF-8 byte order mark
        raw + b"\n",  # one extra trailing newline
    )
    for variant in near_misses:
        assert _written_layout(variant) is None, variant[-8:]

import decimal
import os
import struct
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

from tricluster import (
    EmptyError,
    IoError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    TriclusterError,
    load_labels,
    load_matrix,
    save_labels,
    save_matrix,
)
from tricluster import io as tio
from tricluster.grouping import canonicalize_labels


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_csv_basic_parse(tmp_path):
    p = write(tmp_path / "m.csv", "1.0,2.0\n3.0,4.0\n")
    m = load_matrix(p, fmt="csv")
    assert m.shape == (2, 2)
    assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_inconsistent_columns(tmp_path):
    p = write(tmp_path / "m.csv", "1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_matrix(p, fmt="csv")


def test_csv_nan_rejected(tmp_path):
    p = write(tmp_path / "m.csv", "1.0,2.0\n3.0,nan\n")
    with pytest.raises(NonFiniteError, match="row 2, column 2"):
        load_matrix(p, fmt="csv")


def test_csv_inf_rejected(tmp_path):
    p = write(tmp_path / "m.csv", "inf,2.0\n")
    with pytest.raises(NonFiniteError):
        load_matrix(p, fmt="csv")


def test_csv_empty(tmp_path):
    p = write(tmp_path / "m.csv", "")
    with pytest.raises(EmptyError):
        load_matrix(p, fmt="csv")


def test_csv_header_flag(tmp_path):
    p = write(tmp_path / "m.csv", "x,y\n1.0,2.0\n")
    m = load_matrix(p, fmt="csv", header=True)
    assert m.tolist() == [[1.0, 2.0]]


def count_line_parses(monkeypatch):
    calls = []
    parse = tio._parse_csv_lines

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(tio, "_parse_csv_lines", counted)
    return calls


@pytest.mark.parametrize("text", ["1_000,2\n3,4\n", "1000,2\n  \t\n3,4\n"])
def test_csv_python_float_grammar_goes_through_the_line_parser(
        tmp_path, monkeypatch, text):
    # numpy rejects digit underscores and whitespace-only lines, which
    # Python's float and the line parser accept
    calls = count_line_parses(monkeypatch)
    m = load_matrix(write(tmp_path / "m.csv", text))
    assert m.tolist() == [[1000.0, 2.0], [3.0, 4.0]]
    assert len(calls) == 1


def test_csv_lone_carriage_returns_end_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\r3,4\r")
    assert load_matrix(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert tio._parse_csv_lines(str(path), "1,2\r3,4\r", 0).tolist() == [
        [1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("raw, row", [(b"1,2\x0c3,4\n", 1),
                                      (b"1,2\n3\x0c,4\n5,x\n", 3)])
def test_csv_form_feed_ends_no_row(tmp_path, raw, row):
    # str.splitlines splits at \x0c, and a text file's line does not: the
    # first text is one line that float() rejects, and the bad line of the
    # second is its third
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"^row {row}: "):
        load_matrix(str(path))


def test_csv_numpy_values_equal_python_float(tmp_path, monkeypatch):
    calls = count_line_parses(monkeypatch)
    rng = np.random.default_rng(6)
    m = rng.standard_normal((30, 5)) * np.exp(rng.uniform(-300, 300, (30, 5)))
    cells = [[repr(v) for v in row] for row in m.tolist()]
    cells[0][0], cells[1][1], cells[2][2] = " +1.5e3 ", "-0.0", "4E-2"
    text = "\n".join(",".join(row) for row in cells) + "\n"
    got = load_matrix(write(tmp_path / "m.csv", text))
    assert not calls
    want = [[float(c) for c in row] for row in cells]
    assert got.tolist() == want
    assert np.signbit(got[1, 1])


def test_csv_ragged_row_message(tmp_path):
    p = write(tmp_path / "m.csv", "1,2\n\n3,4\n5\n")
    with pytest.raises(ParseError, match="^row 4: expected 2 columns, got 1$"):
        load_matrix(p, fmt="csv")


@pytest.mark.parametrize("cell", ["nan", "NaN", "infinity", "-Infinity",
                                  "inf"])
def test_csv_nonfinite_row_and_column(tmp_path, cell):
    p = write(tmp_path / "m.csv", f"x,y\n1,2\n3,{cell}\n")
    with pytest.raises(NonFiniteError, match="row 3, column 2"):
        load_matrix(p, fmt="csv", header=True)


@pytest.mark.parametrize("text", ["", "\n\n", " \n", "x,y\n"])
def test_csv_without_data_rows_is_empty(tmp_path, text):
    p = write(tmp_path / "m.csv", text)
    with pytest.raises(EmptyError, match="no data rows"):
        load_matrix(p, fmt="csv", header=text == "x,y\n")


def test_csv_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot read"):
        load_matrix(str(tmp_path / "absent.csv"), fmt="csv")


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 7)) * np.exp(rng.uniform(-20, 20, (40, 7)))
    p = tmp_path / "m.csv"
    save_matrix(m, p, fmt="csv")
    back = load_matrix(p, fmt="csv")
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back, m)


def test_csv_save_bytes_match_the_row_loop(tmp_path):
    # oracle: the per-row loop np.savetxt replaced
    rng = np.random.default_rng(3)
    m = rng.standard_normal((400, 7)) * 10.0 ** rng.integers(-300, 300,
                                                             (400, 7))
    m[0, 0] = -0.0
    m[1, 1] = 5e-324
    m[2, 2] = np.finfo(np.float64).max
    p = tmp_path / "m.csv"
    save_matrix(m, p, fmt="csv")
    want = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in m)
    assert p.read_bytes() == want.encode("utf-8")
    assert p.read_text().startswith("-0,")


def test_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((23, 5))
    p = tmp_path / "m.dtrc"
    save_matrix(m, p, fmt="binary")
    back = load_matrix(p, fmt="binary")
    assert back.dtype == np.float64
    assert np.array_equal(back, m)
    # header check
    raw = p.read_bytes()
    assert raw[:4] == b"DTRC"


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "m.dtrc"
    p.write_bytes(b"XXXX" + b"\0" * 40)
    with pytest.raises(ParseError, match="magic"):
        load_matrix(p, fmt="binary")


def test_binary_truncated_payload(tmp_path):
    rng = np.random.default_rng(2)
    p = tmp_path / "m.dtrc"
    save_matrix(rng.standard_normal((4, 3)), p, fmt="binary")
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(ParseError, match="payload"):
        load_matrix(p, fmt="binary")


def test_binary_header_claiming_more_than_the_file_holds(tmp_path):
    # 2^40 rows of 3 columns would need 24 TiB; the size check comes
    # before any allocation, so this is a ParseError, not a MemoryError
    p = tmp_path / "m.dtrc"
    with open(p, "wb") as fh:
        fh.write(b"DTRC" + struct.pack("<IQQ", 1, 2 ** 40, 3))
        fh.write(np.ones(6, dtype="<f8").tobytes())
    with pytest.raises(ParseError,
                       match=rf"payload is 48 bytes, expected {2 ** 40 * 24}"):
        load_matrix(p, fmt="binary")


def test_binary_payload_longer_than_the_header_says(tmp_path):
    p = tmp_path / "m.dtrc"
    save_matrix(np.ones((4, 3)), p, fmt="binary")
    p.write_bytes(p.read_bytes() + b"\0" * 8)
    with pytest.raises(ParseError, match="payload is 104 bytes, expected 96"):
        load_matrix(p, fmt="binary")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_binary_from_a_pipe():
    # a pipe has no size before it is read; its payload is checked after
    m = np.arange(12, dtype=np.float64).reshape(4, 3)
    for payload in (m.tobytes(), m.tobytes()[:-8], m.tobytes() + bytes(8)):
        r, w = os.pipe()
        os.write(w, b"DTRC" + struct.pack("<IQQ", 1, 4, 3) + payload)
        os.close(w)
        try:
            if len(payload) == m.nbytes:
                assert np.array_equal(
                    load_matrix(f"/dev/fd/{r}", fmt="binary"), m)
            else:
                with pytest.raises(ParseError,
                                   match=f"payload is {len(payload)} bytes"):
                    load_matrix(f"/dev/fd/{r}", fmt="binary")
        finally:
            os.close(r)


def test_binary_nan_rejected(tmp_path):
    m = np.array([[1.0, np.nan]])
    p = tmp_path / "m.dtrc"
    import struct
    with open(p, "wb") as fh:
        fh.write(b"DTRC")
        fh.write(struct.pack("<IQQ", 1, 1, 2))
        fh.write(m.astype("<f8").tobytes())
    with pytest.raises(NonFiniteError):
        load_matrix(p, fmt="binary")


def test_row_order_preserved(tmp_path):
    m = np.arange(30, dtype=np.float64).reshape(10, 3)[::-1].copy()
    for fmt, name in (("csv", "a.csv"), ("binary", "a.dtrc")):
        p = tmp_path / name
        save_matrix(m, p, fmt=fmt)
        assert np.array_equal(load_matrix(p, fmt=fmt), m)


def test_labels_format(tmp_path):
    p = tmp_path / "l.labels"
    save_labels([0, 1, -1], p)
    assert p.read_text() == "0\n1\n-1\n"


def test_labels_empty_rejected(tmp_path):
    with pytest.raises(EmptyError):
        save_labels([], tmp_path / "l.labels")


def test_labels_roundtrip_random(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(20):
        labels = rng.integers(-1, 10, size=rng.integers(1, 200))
        p = tmp_path / f"l{trial}.labels"
        save_labels(labels, p)
        assert np.array_equal(load_labels(p), labels)


@pytest.mark.parametrize("labels", [
    [-1, 2**63 - 1, 0],
    [7],
    np.random.default_rng(5).permutation(10_000) - 1,
    np.random.default_rng(6).integers(-1, 3, 500),
])
def test_labels_bytes_equal_one_str_per_line(tmp_path, labels):
    # each distinct label is formatted once, and its lines gathered
    p = tmp_path / "l.labels"
    save_labels(labels, p)
    want = "\n".join(map(str, np.asarray(labels).tolist())) + "\n"
    assert p.read_bytes() == want.encode()


def test_labels_save_rejects_non_integers(tmp_path):
    # these were written truncated, as 0 1 -1
    p = tmp_path / "l.labels"
    with pytest.raises(ParseError, match="int64 integers"):
        save_labels([0.5, 1.7, -1], p)
    assert not p.exists()


def test_labels_save_rejects_what_is_not_1d(tmp_path):
    # rows of a 2-D array were written as lines such as "[0, 1]"
    p = tmp_path / "l.labels"
    with pytest.raises(ShapeMismatchError, match="1-D"):
        save_labels([[0, 1], [1, 0]], p)
    assert not p.exists()


def test_labels_save_rejects_what_load_refuses(tmp_path):
    # -5 was written, and load_labels then refused the file
    p = tmp_path / "l.labels"
    with pytest.raises(ParseError, match="at least -1"):
        save_labels([-5, 3], p)
    assert not p.exists()


def test_labels_below_minus_one_rejected(tmp_path):
    p = write(tmp_path / "l.labels", "0\n-2\n")
    with pytest.raises(ParseError):
        load_labels(p)


@pytest.mark.parametrize("text, row", [
    ("0\n9223372036854775808\n", 2),
    ("0\n\n\n-5\n", 4),
    ("9223372036854775807\n-1\n-2\n", 3),
])
def test_labels_outside_int64_or_below_minus_one_name_their_line(
        tmp_path, text, row):
    # a label past int64 used to escape as a raw OverflowError, and a
    # row number used to skip the blank lines
    p = write(tmp_path / "l.labels", text)
    with pytest.raises(ParseError,
                       match=rf"^row {row}: label outside \[-1, 2\^63 - 1\]$"):
        load_labels(p)


def test_labels_at_the_int64_edges_load(tmp_path):
    p = write(tmp_path / "l.labels", "-1\n9223372036854775807\n")
    assert load_labels(p).tolist() == [-1, 2**63 - 1]


def test_labels_non_integer_rejected(tmp_path):
    p = write(tmp_path / "l.labels", "0\nfoo\n")
    with pytest.raises(ParseError, match="row 2"):
        load_labels(p)


def test_non_utf8_text_is_parse_error(tmp_path):
    # a DTRC file holding 1.0 has the bytes f0 3f, which UTF-8 rejects
    path = str(tmp_path / "m.bin")
    save_matrix(np.ones((2, 2)), path, fmt="binary")
    for load in (load_matrix, load_labels):
        with pytest.raises(ParseError, match="not UTF-8 text") as exc_info:
            load(path)
        assert path in str(exc_info.value)


def test_canonicalize_labels():
    out = canonicalize_labels([5, 5, -1, 9, 5, 9])
    assert out.tolist() == [0, 0, -1, 1, 0, 1]


def test_canonicalize_labels_matches_loop_oracle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        labels = rng.integers(-1, 30, size=int(rng.integers(0, 200)))
        want, mapping = [], {}
        for lab in labels.tolist():
            want.append(-1 if lab < 0 else mapping.setdefault(lab, len(mapping)))
        assert canonicalize_labels(labels).tolist() == want


def unique_canonicalize(labels):
    """canonicalize_labels by ``np.unique``: the reference it must
    equal."""
    labels = np.asarray(labels, dtype=np.int64)
    ids, first, inverse = np.unique(labels, return_index=True,
                                    return_inverse=True)
    neg = np.searchsorted(ids, 0)
    rank = np.full(len(ids), -1, dtype=np.int64)
    rank[neg + np.argsort(first[neg:])] = np.arange(len(ids) - neg)
    return rank[inverse]


@pytest.mark.parametrize("low, high", [
    (-1, 2), (-1, 1999), (-50, 39), (0, 2 ** 62),
    # labels near 2^63 take the argsort fallback of sort_keys
    (2 ** 63 - 5, 2 ** 63 - 1), (-2 ** 63, 2 ** 63 - 1),
])
def test_canonicalize_labels_equals_the_unique_formula(low, high):
    rng = np.random.default_rng(abs(low))
    for n in (0, 1, 2, 500, 20_000):
        labels = rng.integers(low, high, size=n, dtype=np.int64,
                              endpoint=True)
        got = canonicalize_labels(labels)
        assert got.dtype == np.int64
        assert np.array_equal(got, unique_canonicalize(labels))


def test_canonicalize_labels_below_minus_one_become_minus_one():
    labels = [-5, 3, -1, 3, -2 ** 63, 2 ** 63 - 1, 0, -2]
    assert canonicalize_labels(labels).tolist() == [-1, 0, -1, 0, -1, 1, 2,
                                                    -1]


# --- the exact parallel CSV reader (io._read_csv_exact) ---

needs_reader = pytest.mark.skipif(
    not tio._LONGDOUBLE_HOLDS_HALFWAYS,
    reason="the long double cannot hold the halfway points between doubles")


def fuzz_cells(seed, n):
    """About n cells: %.17g of random bit patterns, exact decimal halfway
    points between neighbouring doubles and cells a hair off them,
    random digit strings, and the ends of the range."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 63, n // 2, dtype=np.uint64)
    bits |= rng.integers(0, 2, len(bits), dtype=np.uint64) << np.uint64(63)
    doubles = bits.view(np.float64)
    cells = [f"{v:.17g}" for v in doubles[np.isfinite(doubles)]]
    # halfway points from 2^-1074 to 2^1023, most of them between 2^-70
    # and 2^70, where a 54-bit value needs no more than ~80 digits
    lows = np.ldexp(rng.uniform(1.0, 2.0, n // 10),
                    rng.integers(-70, 70, n // 10))
    lows[:40] = np.ldexp(rng.integers(0, 2 ** 52, 40), -1074)
    lows[40:60] = np.ldexp(rng.uniform(1.0, 2.0, 20),
                           rng.integers(-1022, 1023, 20))
    lows[60:] *= np.where(rng.random(len(lows) - 60) < 0.5, -1.0, 1.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        for low in lows:
            high = np.nextafter(low, np.copysign(np.inf, low))
            mid = (decimal.Decimal(low) + decimal.Decimal(float(high))) / 2
            hair = abs(mid).scaleb(-25)  # far below a long double's ulp
            cells += [f"{mid:e}", f"{mid - hair:e}", f"{mid + hair:E}"]
    for _ in range(n // 5):
        digits = "".join(rng.choice(list("0123456789"),
                                    int(rng.integers(1, 30))))
        point = int(rng.integers(0, len(digits) + 1))
        cell = rng.choice(["", "-", "+"]) + digits[:point] + "." + \
            digits[point:]
        if rng.random() < 0.2:
            cell = cell.replace(".", "")
        if rng.random() < 0.7:
            cell += (rng.choice(["e", "E"]) + rng.choice(["", "-", "+"])
                     + str(int(rng.integers(0, 270))))
        cells.append(cell)
    cells += ["-0", "0", "+0", ".5", "5.", "-.5", "1E+05", "1e-05",
              "00012", "5e-324", "2.4703282292062327e-324",
              "2.4703282292062328e-324", "2.2250738585072011e-308",
              "2.2250738585072014e-308", "1.7976931348623157e308",
              "1.7976931348623158e308", "-1.7976931348623158e308",
              "1e-400", "-1e-400"]
    return cells


def csv_of(cells, d):
    cells = cells + ["0"] * (-len(cells) % d)
    return "".join(",".join(cells[i:i + d]) + "\n"
                   for i in range(0, len(cells), d)), cells


def forbid_fallbacks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the reader declined")

    monkeypatch.setattr(tio.np, "loadtxt", refuse)
    monkeypatch.setattr(tio, "_parse_csv_lines", refuse)


@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}, None])
def test_csv_reader_equals_python_float_bit_for_bit(tmp_path, monkeypatch,
                                                    cpus):
    if cpus is None:  # the platform gate forced off: numpy's parser runs
        monkeypatch.setattr(tio, "_LONGDOUBLE_HOLDS_HALFWAYS", False)
    elif not tio._LONGDOUBLE_HOLDS_HALFWAYS:
        pytest.skip("the long double cannot hold the halfway points")
    else:
        forbid_fallbacks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
    text, cells = csv_of(fuzz_cells(11, 40000), 7)
    assert len(cells) >= 40000
    path = write(tmp_path / "m.csv", text)
    assert os.path.getsize(path) > 4 * tio._CHUNK_BYTES  # several chunks
    # more threads than cores, switching often: a lost row shows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = load_matrix(path)
    finally:
        sys.setswitchinterval(interval)
    want = np.array([float(c) for c in cells]).reshape(-1, 7)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@needs_reader
@pytest.mark.parametrize("cell, where", [
    ("1e400", "row 2, column 3"),
    ("-1.7976931348623159e308", "row 2, column 3"),
    ("1e5000", "row 2, column 3"),
])
def test_csv_reader_overflow_is_non_finite(tmp_path, monkeypatch, cell,
                                           where):
    forbid_fallbacks(monkeypatch)
    p = write(tmp_path / "m.csv", f"1,2,3\n4,5,{cell}\n")
    with pytest.raises(NonFiniteError, match=where):
        load_matrix(p)


def read_exact(path, header=False):
    """What ``_read_csv_exact`` returned while ``load_matrix`` loaded
    ``path``: the matrix, or None where it declined or was not called."""
    got = [None]
    read = tio._read_csv_exact

    def spy(fh):
        got[0] = read(fh)
        return got[0]

    with mock.patch.object(tio, "_read_csv_exact", spy):
        try:
            load_matrix(path, header=header)
        except TriclusterError:
            pass
    return got[0]


def outcome(path, header):
    try:
        return load_matrix(path, header=header).view(np.uint64).tolist()
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("raw, header, taken", [
    (b"1,2\n3,4", False, True),
    (b"x,y\n1,2\n3,4\n", True, True),
    (b"\xef\xbb\xbfx,y\n1.5,-2\n", True, True),
    (b"1,2\n \n3,4\n", False, False),
    (b"1,2\n\n3,4\n", False, False),
    (b"1\n\n2\n", False, False),
    (b"1,2\n3,4\n\n", False, False),
    (b"1,2\r\n3,4\r\n", False, False),
    (b"1,2\r3,4\r", False, False),
    (b"1_000,2\n3,4\n", False, False),
    (b"1,nan\n", False, False),
    (b"inf,2\n", False, False),
    (b"1,2\n3\n", False, False),
    (b"1\n2,3\n", False, False),
    (b"1,2\n3,4,5\n6\n", False, False),
    (b"1,2,\n3,4,\n", False, False),
    (b"1, 2\n3,4\n", False, False),
    (b"0x1p3,1\n", False, False),
    (b"1e,2\n", False, False),
    (b"1.2.3,4\n", False, False),
    (b"1,,2\n", False, False),
    (b"\xff,2\n", False, False),
    (b"x\ry\n1,2\n", True, False),
    (b"\xff,y\n1,2\n", True, False),
    (b"", False, False),
    (b"\n", False, False),
    (b"x,y\n", True, False),
    (b"x,y", True, False),
])
def test_csv_reader_takes_or_declines_with_todays_outcome(
        tmp_path, monkeypatch, raw, header, taken):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    if tio._LONGDOUBLE_HOLDS_HALFWAYS:
        assert (read_exact(str(path), header) is not None) == taken
    got = outcome(str(path), header)
    monkeypatch.setattr(tio, "_LONGDOUBLE_HOLDS_HALFWAYS", False)
    assert got == outcome(str(path), header)


@pytest.mark.parametrize("old_numpy", [False, True])
@pytest.mark.parametrize("raw", [b"1, 2\n3,4\n", b"1e,2\n", b"1.2.3,4\n",
                                 b"1,,2\n"])
def test_csv_reader_declines_under_warnings_as_errors(tmp_path, monkeypatch,
                                                      raw, old_numpy):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    want = outcome(str(path), False)
    if old_numpy:  # older numpy warns and returns the cells it read
        fromstring = np.fromstring

        def warning_fromstring(string, dtype, sep):
            try:
                return fromstring(string, dtype=dtype, sep=sep)
            except ValueError:
                warnings.warn("string or file could not be read to its end "
                              "due to unmatched data", DeprecationWarning)
                return np.zeros(0, dtype)

        monkeypatch.setattr(tio.np, "fromstring", warning_fromstring)
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert read_exact(str(path)) is None
            assert outcome(str(path), False) == want
        assert not caught


@needs_reader
def test_csv_reader_allocates_no_more_than_the_file_fills(tmp_path):
    # 10^5 cells on the first line and 10^5 more lines would make 8e10
    # bytes of rows; the reader declines before it allocates
    path = tmp_path / "m.csv"
    path.write_bytes(b"1" + b",1" * 99999 + b"\n" + b"1\n" * 100000)
    assert read_exact(str(path)) is None
    with pytest.raises(ParseError,
                       match="^row 2: expected 100000 columns, got 1$"):
        load_matrix(str(path))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_csv_from_a_pipe(tmp_path):
    # the text fits in one pipe buffer (64 KiB on Linux), so the write
    # cannot block
    text, _ = csv_of([f"{v:.17g}" for v in np.linspace(-3, 7, 901)], 3)
    want = load_matrix(write(tmp_path / "m.csv", text))
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    try:
        got = load_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@needs_reader
@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_csv_pipe_is_parsed_by_the_exact_reader(tmp_path, monkeypatch):
    # a pipe is read whole once, then parsed in chunks like a file
    text, _ = csv_of(fuzz_cells(5, 30000), 6)
    want = load_matrix(write(tmp_path / "m.csv", text))
    chunks = []
    parse = tio._parse_rows

    def spy(values, chunk, row, rows):
        chunks.append(rows)
        return parse(values, chunk, row, rows)

    monkeypatch.setattr(tio, "_parse_rows", spy)
    r, w = os.pipe()
    writer = threading.Thread(target=lambda: (os.write(w, text.encode()),
                                              os.close(w)))
    writer.start()
    try:
        got = load_matrix(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert len(chunks) > 1 and sum(chunks) == len(want)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c"])
def test_csv_header_ends_where_a_text_file_ends_it(tmp_path, mark):
    # str.splitlines splits at these, and a text file's line does not;
    # the whitespace-only line sends the rows to the line parser
    path = write(tmp_path / "m.csv", f"h{mark}x\n1,2\n  \n3,4\n")
    assert load_matrix(path, header=True).tolist() == [[1, 2], [3, 4]]


def test_csv_lone_carriage_return_header_goes_to_the_exact_reader(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"x,y\r1.5,-2\n0.1,3e-5\n")
    want = [[1.5, -2.0], [0.1, 3e-5]]
    if tio._LONGDOUBLE_HOLDS_HALFWAYS:
        assert read_exact(str(path), True).tolist() == want
    got = load_matrix(str(path), header=True)
    assert got.view(np.uint64).tolist() == np.array(want).view(
        np.uint64).tolist()


def load_outcome(path):
    """The bits of the loaded matrix, or the error's type and message."""
    try:
        return load_matrix(path).view(np.uint64).tolist()
    except TriclusterError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("text", ["1_000,2\n3,4\n", "1,2\n   \n3,4\n",
                                  "1,2\n3,x\n"])
def test_csv_pipe_numpy_rejects_loads_as_a_file(tmp_path, text):
    # numpy's parser reads the pipe to its end before it rejects it, and
    # the line parser must still see the same bytes
    want = load_outcome(write(tmp_path / "m.csv", text))
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    try:
        got = load_outcome(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert got == want


@needs_reader
def test_csv_reader_raises_what_a_thread_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    parse = tio._parse_rows

    def failing(values, chunk, row, rows):
        if row:
            raise MemoryError("chunk")
        return parse(values, chunk, row, rows)

    monkeypatch.setattr(tio, "_parse_rows", failing)
    text, _ = csv_of(["1.25"] * 200000, 4)
    with pytest.raises(MemoryError, match="chunk"):
        load_matrix(write(tmp_path / "m.csv", text))


# --- the reader's integer path (io._read_decimals) ---

def refuse_strtold(monkeypatch):
    def refuse(chunk):
        raise AssertionError("a chunk went to strtold")

    monkeypatch.setattr(tio, "_read_strtold", refuse)


def decimal_cells(seed, n):
    """About n cells in the integer path's grammar and limits: %.17g,
    %.15g and repr of doubles of both signs between 1e-9 and 1e9, random
    significands of up to 18 digits with leading zeros, "+" signs and
    "e"/"E" exponents, signed zeros, and halfway points between doubles
    that take at most 18 digits."""
    rng = np.random.default_rng(seed)
    v = np.exp(rng.uniform(np.log(1e-9), np.log(1e9), n // 4))
    v *= rng.choice([-1.0, 1.0], len(v))
    cells = [f"{x:.17g}" for x in v] + [f"{x:.15g}" for x in v]
    cells += [repr(x) for x in v.tolist()]
    for _ in range(n // 4):
        digits = "0" * int(rng.integers(0, 3)) + str(
            int(rng.integers(0, 10 ** int(rng.integers(1, 19)))))
        frac = int(rng.integers(0, len(digits)))  # digits after the "."
        cell = str(rng.choice(["", "-", "+"])) + digits[:len(digits) - frac]
        if frac:
            cell += "." + digits[len(digits) - frac:]
        if rng.random() < 0.3:  # keep |exponent - frac| <= 27
            exp = int(rng.integers(frac - 27, frac + 28))
            cell += (str(rng.choice(["e", "E"])) + ("+" if exp >= 0 and
                     rng.random() < 0.5 else "") + str(exp))
        cells.append(cell)
    cells += ["-0.0", "-0", "+0", "0.0", "-0e5", "0E-27", "+1.5E+05",
              "1e-05", "-00012.50", "123456789012345678", "-0.123456789012345678",
              "999999999999999999e-27", "1e27", "9007199254740993.0"]
    # halfway points: an odd multiple of half an ulp above 2^52, 2^53 and
    # 2^56, and the same read with a "." or an exponent
    for j in rng.integers(0, 10 ** 6, 20).tolist():
        cells += [f"{2 ** 52 + j}.5", f"{2 ** 53 + 2 * j + 1}",
                  f"-{2 ** 53 + 2 * j + 1}.0", f"{2 ** 56 + 16 * j + 8}",
                  f"{(2 ** 53 + 2 * j + 1) * 10}e-1"]
    return cells


@needs_reader
@pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
def test_csv_integer_path_equals_python_float_bit_for_bit(
        tmp_path, monkeypatch, cpus):
    forbid_fallbacks(monkeypatch)
    refuse_strtold(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    text, cells = csv_of(decimal_cells(5, 60000), 6)
    path = write(tmp_path / "m.csv", text)
    assert os.path.getsize(path) > 4 * tio._CHUNK_BYTES  # several chunks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = load_matrix(path)
    finally:
        sys.setswitchinterval(interval)
    want = np.array([float(c) for c in cells]).reshape(-1, 6)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@needs_reader
@pytest.mark.parametrize("cell", [
    "5.", ".5", "-.5", "+.5", "1.2.3", "1e5.5", "1.-5", "1.5e", "1e+", "-",
    "1.5e5e5", "1234567890123456789", "-1.234567890123456789",
    "1e28", "1.5e-27", "-12345678901234567890", "12345678901234567890",
    "1e99999999999999999999", "1e-99999999999999999999", "1, 2", " 1",
])
def test_csv_integer_path_declines_with_todays_outcome(tmp_path, monkeypatch,
                                                       cell):
    raw = f"1.5,{cell}\n2.5,-3\n".encode()
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    assert tio._read_decimals(raw) is None
    got = outcome(str(path), False)
    monkeypatch.setattr(tio, "_read_decimals", lambda chunk: None)
    assert got == outcome(str(path), False)


@needs_reader
def test_powers_of_ten_are_exact():
    assert [int(p) for p in tio._POW10] == [10 ** k for k in range(28)]


@needs_reader
def test_numpy_int64_parse_as_the_integer_path_relies_on():
    # leading zeros are decimal, and a sign may lead a token
    assert np.fromstring(b"0012,-0,+7,", np.int64, sep=",").tolist() == [
        12, 0, 7]
    # a token beyond int64 saturates to +INT64_MAX, whatever its sign, so
    # it fails the reader's bound on the significand
    for token in (b"9223372036854775808,", b"-9223372036854775809,"):
        assert np.fromstring(token, np.int64, sep=",").tolist() == [
            np.iinfo(np.int64).max]
    # whitespace around a token is skipped, so the reader refuses it itself
    assert np.fromstring(b" 1 ,\t2,", np.int64, sep=",").tolist() == [1, 2]
    # a sign inside a token, an empty token and any other byte are errors
    # (older numpy warned, which the reader turns into an error)
    for text in (b"1-2,3,", b"1,,2,", b"1x,2,", b"x1,2,", b"+-1,",
                 "1\u00b2,".encode()):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises((ValueError, DeprecationWarning)):
                np.fromstring(text, np.int64, sep=",")


@needs_reader
def test_csv_generator_file_takes_the_integer_path(tmp_path, monkeypatch):
    from tricluster.synthgen import SynthConfig, generate

    # the blobs_csv benchmark workload's generator config, at 2 000 rows
    data, _ = generate(SynthConfig(
        n_points=2000, n_clusters=5, n_dim=50, overlap=0.08,
        anomaly_fraction=0.05, random_state=7))
    path = str(tmp_path / "m.csv")
    save_matrix(data, path)
    assert os.path.getsize(path) > 4 * tio._CHUNK_BYTES  # several chunks
    refuse_strtold(monkeypatch)
    forbid_fallbacks(monkeypatch)
    got = load_matrix(path)
    assert got.view(np.uint64).tolist() == data.view(np.uint64).tolist()


# --- the halfway step (io._halfway) ---

def across_test(cells, flat):
    """The halfway test of any long double that holds the halfway
    points: 2 * cell - flat is a double exactly where the cell lies
    halfway between flat and that double, or where flat is infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        across = 2 * cells - flat
        return (cells != flat) & (across == across.astype(np.float64))


def edge_long_doubles(rng):
    """Long doubles where a double's 11 low bits do not mark its
    midpoints, and their neighbours: binade boundaries 2^e - 2^(e-54),
    midpoints among subnormal doubles and random cells rounding to them,
    the bottom of the normal range, cells above DBL_MAX and signed
    zeros, of both signs."""
    one = np.longdouble(1)
    bounds = np.ldexp(np.longdouble(2 ** 54 - 1), np.arange(-1075, 1031) - 54)
    odd = np.ldexp(2 * rng.integers(0, 2 ** 52, 300).astype(np.longdouble)
                   + 1, -1075)
    sub = np.ldexp(rng.integers(2 ** 62, 2 ** 63, 300).astype(np.longdouble),
                   rng.integers(-1140, -1084, 300))
    ends = np.array([np.ldexp(one, -1022) - np.ldexp(one, -1075),
                     np.ldexp(one, -1022), np.ldexp(one, -1074),
                     np.ldexp(one, -1075), np.ldexp(one, 1024),
                     np.ldexp(one, 1024) - np.ldexp(one, 970),
                     np.ldexp(one, 1030), 0.0], dtype=np.longdouble)
    cells = np.concatenate((bounds, odd, sub, ends))
    cells = np.concatenate((cells, np.nextafter(cells, 2 * cells + 1),
                            np.nextafter(cells, -1 - 2 * cells)))
    return np.concatenate((cells, -cells))


@needs_reader
def test_halfway_step_flags_the_cells_the_across_test_flags():
    # random 18-digit significands, read by the integer path, land on a
    # midpoint between doubles about once in 2 000 cells; as "0." and 18
    # digits none is a decimal midpoint, and about half of them round the
    # wrong way without the float() read
    rng = np.random.default_rng(20)
    sig = rng.integers(10 ** 17, 10 ** 18, 400000).tolist()
    exp = rng.integers(-27, 1, 400000).tolist()
    dot = rng.integers(1, 18, 400000).tolist()
    text = [(f"0.{m}", f"{m}e{k}", f"{str(m)[:p]}.{str(m)[p:]}")[i % 3]
            for i, (m, k, p) in enumerate(zip(sig, exp, dot))]
    chunk = ("\n".join(text) + "\n").encode()
    cells = tio._read_decimals(chunk)[0]
    with np.errstate(over="ignore"):
        flat = cells.astype(np.float64)
    want = np.flatnonzero(across_test(cells, flat))
    assert tio._halfway(cells, flat).tolist() == want.tolist()
    assert len(want) >= 150
    assert sum(float(text[k]) != flat[k] for k in want.tolist()) >= 20
    values = np.empty((len(text), 1))
    assert tio._parse_rows(values, chunk, 0, len(text))
    assert values.ravel().tolist() == [float(t) for t in text]

    cells = edge_long_doubles(rng)
    with np.errstate(over="ignore"):
        flat = cells.astype(np.float64)
    want = np.flatnonzero(across_test(cells, flat))
    assert tio._halfway(cells, flat).tolist() == want.tolist()
    assert len(want) > 1000
    # chunks with no cell out of range, or out of it at one end only
    size = np.abs(flat)
    for part in (size < 1e300, size > 1e-300, (size > 1e-300) & (size < 1e300)):
        with np.errstate(over="ignore"):
            flat = cells[part].astype(np.float64)
        want = np.flatnonzero(across_test(cells[part], flat))
        assert tio._halfway(cells[part], flat).tolist() == want.tolist()
        assert len(want) > 500

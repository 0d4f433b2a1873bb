import os
import struct

import numpy as np
import pytest

from tricluster import (
    EmptyError,
    IoError,
    NonFiniteError,
    ParseError,
    load_labels,
    load_matrix,
    save_labels,
    save_matrix,
)
from tricluster import io as tio
from tricluster.io import canonicalize_labels


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
    assert tio._parse_csv_lines(str(path), False).tolist() == [
        [1.0, 2.0], [3.0, 4.0]]


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


def test_labels_below_minus_one_rejected(tmp_path):
    p = write(tmp_path / "l.labels", "0\n-2\n")
    with pytest.raises(ParseError):
        load_labels(p)


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

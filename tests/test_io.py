import numpy as np
import pytest

from tricluster import (
    EmptyError,
    NonFiniteError,
    ParseError,
    load_labels,
    load_matrix,
    save_labels,
    save_matrix,
)
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


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((40, 7)) * np.exp(rng.uniform(-20, 20, (40, 7)))
    p = tmp_path / "m.csv"
    save_matrix(m, p, fmt="csv")
    back = load_matrix(p, fmt="csv")
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back, m)


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

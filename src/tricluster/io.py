"""Load and save point matrices, embeddings and label vectors.

Two matrix formats are supported:

* ``csv``    -- comma separated, no header by default, values emitted with
  17 significant digits so a save/load round-trip is lossless.
* ``binary`` -- magic bytes ``DTRC``, u32 version=1, u64 n_points,
  u64 n_dims, then little-endian float64 payload, row-major. Bit-exact
  and seekable.

Label files are newline-delimited signed integers, one per point.
NaN/Inf cells are rejected at load time: the robust statistics downstream
are undefined on non-finite values.
"""

from __future__ import annotations

import os
import stat
import struct
import warnings

import numpy as np

from .errors import (
    EmptyError,
    IoError,
    NonFiniteError,
    ParseError,
)

MAGIC = b"DTRC"
VERSION = 1


def _validate_finite(values: np.ndarray, n_header_rows: int = 0) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise NonFiniteError(
            f"non-finite value at row {int(r) + 1 + n_header_rows}, column {int(c) + 1}"
        )


def load_matrix(path, fmt: str = "csv", header: bool = False) -> np.ndarray:
    """Load an n x d float64 matrix. Row order is preserved exactly."""
    if fmt == "csv":
        return _load_csv(path, header)
    if fmt == "binary":
        return _load_binary(path)
    raise ParseError(f"unknown matrix format {fmt!r}")


def _read_lines(path) -> list:
    """The lines of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_csv(path, header: bool) -> np.ndarray:
    """Parse with numpy's C parser, which builds no Python lists.

    numpy accepts a subset of the cells that Python's ``float`` accepts
    and reads them to the same values. Whatever it rejects or reads as
    empty goes to the line parser, which accepts the rest (``1_000``,
    whitespace-only lines) and raises the errors with their row and
    column; so does a file it cannot open.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, delimiter=",", dtype=np.float64,
                                comments=None, ndmin=2, skiprows=int(header),
                                encoding="utf-8")
    except (OSError, ValueError, UnicodeDecodeError):
        return _parse_csv_lines(path, header)
    if not len(values):
        return _parse_csv_lines(path, header)
    _validate_finite(values, n_header_rows=int(header))
    return values


def _parse_csv_lines(path, header: bool) -> np.ndarray:
    lines = _read_lines(path)
    start = 1 if header else 0
    rows = []
    n_cols = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if n_cols is None:
            n_cols = len(cells)
        elif len(cells) != n_cols:
            raise ParseError(
                f"row {lineno}: expected {n_cols} columns, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"row {lineno}: {exc}") from exc

    if not rows:
        raise EmptyError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    _validate_finite(values, n_header_rows=start)
    return values


def _load_binary(path) -> np.ndarray:
    """Read the payload straight into the array, after checking the size
    that the header claims against the file's, so a bad header cannot
    make it allocate; a pipe's size shows only once it is read."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4 + 4 + 8 + 8)
            if len(head) < 24 or head[:4] != MAGIC:
                raise ParseError(f"{path}: bad magic, not a DTRC file")
            version, n_points, n_dims = struct.unpack("<IQQ", head[4:])
            if version != VERSION:
                raise ParseError(f"{path}: unsupported DTRC version {version}")
            if n_points == 0 or n_dims == 0:
                raise EmptyError(f"{path}: zero-sized matrix")
            expected = n_points * n_dims * 8
            info = os.fstat(fh.fileno())
            size = (info.st_size - len(head) if stat.S_ISREG(info.st_mode)
                    else expected)
            if size == expected:
                values = np.empty((n_points, n_dims), dtype="<f8")
                size = fh.readinto(values) + len(fh.read())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if size != expected:
        raise ParseError(f"{path}: payload is {size} bytes, expected {expected}")
    values = values.astype(np.float64, copy=False)
    _validate_finite(values)
    return values


def save_matrix(values: np.ndarray, path, fmt: str = "csv") -> None:
    """Save an n x d matrix; csv uses 17 significant digits (lossless)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise EmptyError("matrix must be 2-D and non-empty")
    if fmt == "csv":
        try:
            # an open handle, so a ".gz" name is not compressed
            with open(path, "w", encoding="utf-8") as fh:
                np.savetxt(fh, values, fmt="%.17g", delimiter=",")
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
    elif fmt == "binary":
        n, d = values.shape
        try:
            with open(path, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<IQQ", VERSION, n, d))
                fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
    else:
        raise ParseError(f"unknown matrix format {fmt!r}")


def load_labels(path) -> np.ndarray:
    """Load newline-delimited signed integer labels; -1 marks anomalies."""
    labels = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            labels.append(int(line))
        except ValueError as exc:
            raise ParseError(f"row {lineno}: {exc}") from exc
    if not labels:
        raise EmptyError(f"{path}: no labels")
    out = np.asarray(labels, dtype=np.int64)
    if (out < -1).any():
        bad = int(np.argwhere(out < -1)[0][0])
        raise ParseError(f"row {bad + 1}: label below -1")
    return out


def save_labels(labels, path) -> None:
    """Write one integer per line, order preserved."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise EmptyError("label vector is empty")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(map(str, labels.tolist())) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def canonicalize_labels(labels) -> np.ndarray:
    """Relabel non-negative labels to 0..k-1 by ascending first occurrence.

    -1 entries are kept as-is.
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full(labels.shape, -1, dtype=np.int64)
    clustered = labels >= 0
    _, first, inverse = np.unique(labels[clustered], return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    out[clustered] = rank[inverse]
    return out

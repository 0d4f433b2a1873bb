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

A CSV file is first offered to ``_read_csv_exact``, which parses chunks
of whole lines on every core the process may use, through the C
library's ``strtold`` (``np.fromstring`` to long double releases the
GIL), and rounds each long double once more to float64. That second
rounding gives ``float()``'s value except where the long double lies
exactly halfway between two doubles: ``strtold`` rounds correctly, and
rounding is monotone, so the first rounding cannot carry a value across
a halfway point, only onto one. A halfway point has 54 significant bits
and is a long double wherever the long double is the x87 80-bit or the
IEEE binary128 format; elsewhere (a float64 long double on Windows and
Apple arm64, IBM double-double) the reader is off. Cells that land on a
halfway point are read again with ``float()``. Whatever the reader is
not sure of, it leaves to ``np.loadtxt`` and the line parser, so the
grammar, the values and the errors are theirs.
"""

from __future__ import annotations

import os
import stat
import struct
import threading
import warnings
from io import BytesIO, TextIOWrapper

import numpy as np

from .errors import (
    EmptyError,
    IoError,
    NonFiniteError,
    ParseError,
)

MAGIC = b"DTRC"
VERSION = 1

# bytes of one chunk of CSV lines: on two cores a 20 MB file of 20k x 50
# cells loads as fast with chunks of 64 KiB to 1 MiB, and 20% slower with
# 32 KiB; the small end keeps the chunks in flight small
_CHUNK_BYTES = 1 << 17
# x87 extended (63) or IEEE binary128 (112): every halfway point between
# two doubles, subnormal ones too, is a long double
_LONGDOUBLE_HOLDS_HALFWAYS = np.finfo(np.longdouble).nmant in (63, 112)
# the bytes of a cell that strtold may read, and "," for the line end;
# any other byte becomes "!", and a chunk holding one is declined
_CELL_BYTES = bytes(
    b if chr(b) in "0123456789.+-eE," else 44 if b == 10 else 33
    for b in range(256))


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


def _open_text(path, data=None):
    """``path`` opened as UTF-8 text; or, given ``data``, the bytes read
    from it before, wrapped to read as the file would."""
    if data is None:
        return open(path, "r", encoding="utf-8")
    return TextIOWrapper(BytesIO(data), encoding="utf-8")


def _stream_bytes(path):
    """All bytes of ``path`` when it is not a regular file, such as a
    pipe, which can be read only once; None for a regular file, and for
    a path that cannot be opened."""
    try:
        with open(path, "rb") as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                return None
            return fh.read()
    except OSError:
        return None


def _read_lines(path, data=None) -> list:
    """The lines of a UTF-8 text file, or of its bytes ``data``."""
    try:
        with _open_text(path, data) as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_csv(path, header: bool) -> np.ndarray:
    """Read with ``_read_csv_exact``; where it declines, parse with
    numpy's C parser, which builds no Python lists.

    The reader declines a pipe, a platform whose long double cannot hold
    the halfway points, a header line that is not UTF-8 or holds a
    ``\\r``, and a file with a byte outside ``0-9 . + - e E , \\n``, an
    empty line, a line with another cell count than the first, or a cell
    that ``strtold`` does not read whole.

    numpy accepts a subset of the cells that Python's ``float`` accepts
    and reads them to the same values. Whatever it rejects or reads as
    empty goes to the line parser, which accepts the rest (``1_000``,
    whitespace-only lines) and raises the errors with their row and
    column; so does a file it cannot open. A pipe is read once, and
    both parsers read the same bytes.
    """
    values = _read_csv_exact(path, header)
    if values is None:
        data = _stream_bytes(path)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(
                    path if data is None else _open_text(path, data),
                    delimiter=",", dtype=np.float64, comments=None, ndmin=2,
                    skiprows=int(header), encoding="utf-8")
        except (OSError, ValueError, UnicodeDecodeError):
            return _parse_csv_lines(path, header, data)
        if not len(values):
            return _parse_csv_lines(path, header, data)
    _validate_finite(values, n_header_rows=int(header))
    return values


def _read_csv_exact(path, header: bool):
    """The matrix of a regular CSV file whose lines all hold d cells,
    each a decimal number that ``strtold`` reads whole (such as ``-.5``,
    ``5.`` or ``1E+05``), with each value equal to ``float()`` of its
    cell; None for any other file.

    A first pass finds the last line end in every ``_CHUNK_BYTES`` and
    counts the rows, so the output is allocated once. Then each thread
    reads the next chunk of whole lines between those ends, one at a
    time, and writes its rows. A pipe is left alone, since it can be
    read only once.
    """
    if not _LONGDOUBLE_HOLDS_HALFWAYS:
        return None
    try:
        with open(path, "rb") as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                return None
            # loadtxt skips one line by universal newlines, in UTF-8
            if header and "\r" in fh.readline().decode("utf-8"):
                return None
            start = fh.tell()
            d = fh.readline().count(b",") + 1
            fh.seek(start)
            ends, rows = [], 0  # (end of a chunk, rows before it)
            while buf := fh.read(_CHUNK_BYTES):
                cut = buf.rfind(b"\n") + 1
                if cut:
                    ends.append((fh.tell() - len(buf) + cut, rows))
                rows += np.count_nonzero(np.frombuffer(buf, np.uint8) == 10)
            if fh.tell() > (ends[-1][0] if ends else start):
                ends.append((fh.tell(), rows))  # a last line without an end
                rows += 1
            # a cell takes a digit and a separator: the first line's
            # cell count cannot make it allocate more than the file fills
            if not rows or 2 * rows * d - 1 > fh.tell() - start:
                return None
            fh.seek(start)
            chunks = ((fh.read(end - fh.tell()), row, stop - row)
                      for (end, row), (_, stop) in zip(ends,
                                                       ends[1:] + [(0, rows)]))
            values = np.empty((rows, d), dtype=np.float64)
            workers = min(len(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity")
                          else os.cpu_count() or 1, len(ends))
            if not _parse_chunks(values, chunks, workers):
                return None
    except (OSError, UnicodeDecodeError):
        return None
    return values


def _parse_chunks(values, chunks, workers: int) -> bool:
    """Run ``_parse_rows`` over the chunks on ``workers`` threads, each
    reading its next chunk when it is done with the last; False once one
    declines. An exception in a thread is raised here."""
    lock = threading.Lock()
    verdicts = []  # False, or the exception a thread raised

    def work():
        try:
            while not verdicts:
                with lock:
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                if not _parse_rows(values, *chunk):
                    verdicts.append(False)
        except BaseException as exc:
            verdicts.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    # older numpy warns, rather than raises, where a cell stops strtold;
    # set here, as catch_warnings is not thread-safe
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "error", "string or file could not be read to its end",
            DeprecationWarning)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    for verdict in verdicts:
        if verdict is not False:
            raise verdict
    return not verdicts


def _parse_rows(values, chunk: bytes, row: int, rows: int) -> bool:
    """Write the ``rows`` lines of one chunk into ``values`` from ``row``
    on; False if a line does not hold d cells or a cell is not read whole.
    """
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    body = chunk.translate(_CELL_BYTES)
    if b"!" in body:
        return False
    seps = np.flatnonzero(np.frombuffer(body, np.uint8) == 44)
    d = values.shape[1]
    # the chunk has `rows` line ends: if separator k * d is one for every
    # k, every line holds d - 1 commas
    if len(seps) != rows * d or not (
            np.frombuffer(chunk, np.uint8)[seps[d - 1::d]] == 10).all():
        return False
    try:
        cells = np.fromstring(body, dtype=np.longdouble, sep=",")
    except (ValueError, DeprecationWarning):
        return False
    if cells.size != seps.size:
        return False
    flat = values[row:row + rows].reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        flat[:] = cells
        # a cell halfway between two doubles is the mean of flat and the
        # double across from it, and 2 * cell - flat is that double
        # exactly; a finite cell whose flat is infinite is read again
        # too (2 * cell - inf is a double): it may round to the largest
        across = 2 * cells - flat
        again = (cells != flat) & (across == across.astype(np.float64))
    for k in np.flatnonzero(again):
        flat[k] = float(chunk[seps[k - 1] + 1 if k else 0:seps[k]])
    return True


def _parse_csv_lines(path, header: bool, data=None) -> np.ndarray:
    lines = _read_lines(path, data)
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

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
of whole lines on every core the process may use into correctly rounded
long doubles, and rounds each long double once more to float64. A chunk
whose every cell is ``[+-]digits[.digits][(e|E)[+-]digits]``, with at
most 18 significant digits and a power of ten 10^k with |k| <= 27, is
read as 64-bit integers by ``np.fromstring``: each cell's digits
without the ``.`` are its significand m, and m / 10^-k or
m * 10^k, both operands exact in the long double, is one correctly
rounded operation (Clinger's fast path). Any other chunk is read by the C
library's ``strtold``, which is 3 to 4 times slower. Either parse
releases the GIL, and both give the same long double. The rounding to
float64 gives ``float()``'s value except where the long double lies
exactly halfway between two doubles: the long double is correctly
rounded, and rounding is monotone, so it cannot carry a value across
a halfway point, only onto one. A halfway point has 54 significant bits
and is a long double wherever the long double is the x87 80-bit or the
IEEE binary128 format; elsewhere (a float64 long double on Windows and
Apple arm64, IBM double-double) the reader is off. Cells that land on a
halfway point are read again with ``float()``. In the x87 format they
are found from the significand alone: where the double is normal, the
11 bits below its 53 read 0x400 exactly on a halfway point. Cells whose
double is zero, subnormal, the smallest normal or infinite, and every
cell of another format, are tested by 2 * cell - double, which is a
double exactly where the cell lies halfway. Whatever the reader is not
sure of, it leaves to ``np.loadtxt`` and the line parser, so the
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

from .delaunay import sort_keys
from .errors import (
    EmptyError,
    IoError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
)

MAGIC = b"DTRC"
VERSION = 1

# bytes of one chunk of CSV lines. Each chunk pays some 50 numpy calls,
# and on two threads each call may wait for the GIL: on two Xeon cores
# the 20 MB blobs_csv benchmark file loaded in 107 ms with 256 or 512 KiB
# chunks and in 120 ms with 128 KiB (medians of 14). Where each thread
# has its own malloc arena, as in a library call, the memory of a worker
# thread's chunks stays resident there: 512 KiB raised a cluster job's
# peak RSS by 2.3 MB over 256 KiB. The CLI runs with one arena, and
# there the two sizes gave the same peak (63.4-63.7 MB, two runs each)
_CHUNK_BYTES = 1 << 18
# x87 extended (63) or IEEE binary128 (112): every halfway point between
# two doubles, subnormal ones too, is a long double
_LONGDOUBLE_HOLDS_HALFWAYS = np.finfo(np.longdouble).nmant in (63, 112)
# x87 extended, little-endian in 16 bytes: the first 8 are the
# significand, with the integer bit, so its low 11 bits lie below a
# double's 53
_LOW_BITS_MARK_HALFWAY = (np.finfo(np.longdouble).nmant == 63
                          and np.dtype(np.longdouble).itemsize == 16
                          and np.little_endian)
_TINY = np.finfo(np.float64).tiny
# the bytes of a cell that strtold may read, and "," for the line end;
# any other byte becomes "!", and a chunk holding one is declined
_CELL_BYTES = bytes(
    b if chr(b) in "0123456789.+-eE," else 44 if b == 10 else 33
    for b in range(256))
# a separator's place within a cell: ".", then "e" or "E", then the end
_SEP_RANK = np.zeros(256, np.uint8)
_SEP_RANK[[46, 69, 101, 44, 10]] = [1, 2, 2, 3, 3]
# 10^max(k, 0) and 10^max(-k, 0) at index 27 + k, for |k| <= 27; each a
# product of exact long doubles, so exact where the reader is on
_POW10 = np.cumprod(np.r_[1, np.full(27, 10)].astype(np.longdouble))
_POW10_UP = np.r_[np.ones(27, np.longdouble), _POW10]
_POW10_DOWN = np.r_[_POW10[::-1], np.ones(27, np.longdouble)]


def _validate_finite(values: np.ndarray, n_header_rows: int = 0) -> None:
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
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
    that ``strtold`` does not read whole. A chunk of lines whose cells all
    fit the integer grammar and its limits (see ``_read_decimals``) is
    parsed as integers; any other chunk goes to ``strtold``, with the
    same values, so the grammar alone never changes what loads.

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

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    # older numpy warns, rather than raises, where a cell stops strtold;
    # set here, as catch_warnings is not thread-safe
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "error", "string or file could not be read to its end",
            DeprecationWarning)
        for thread in threads:
            thread.start()
        # this thread parses too: the memory it frees stays in the arena
        # the later stages allocate from. A worker thread's stays in an
        # arena of its own, except under the CLI, which runs one arena
        work()
        for thread in threads:
            thread.join()
    for verdict in verdicts:
        if verdict is not False:
            raise verdict
    return not verdicts


def _parse_rows(values, chunk: bytes, row: int, rows: int) -> bool:
    """Write the ``rows`` lines of one chunk into ``values`` from ``row``
    on; False if a line does not hold d cells or a cell is not read whole.

    The chunk is read by ``_read_decimals`` and, where that declines, by
    ``_read_strtold``; both give each cell's correctly rounded long
    double, so the values do not depend on which one read the chunk.
    Rounding it to float64 rounds twice, which gives ``float()``'s value
    except on a halfway point between two doubles; ``_halfway`` finds
    those cells, and each is read again with ``float()``.
    """
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    read = _read_decimals(chunk) or _read_strtold(chunk)
    if read is None:
        return False
    cells, ends = read
    d = values.shape[1]
    # the chunk has `rows` line ends: if cell end k * d is one for every
    # k, every line holds d cells
    if len(ends) != rows * d or not (
            np.frombuffer(chunk, np.uint8)[ends[d - 1::d]] == 10).all():
        return False
    flat = values[row:row + rows].reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        flat[:] = cells
        again = _halfway(cells, flat)
    for k in again:
        flat[k] = float(chunk[ends[k - 1] + 1 if k else 0:ends[k]])
    return True


def _halfway(cells, flat):
    """Positions of the long doubles ``cells`` that ``float()`` must read
    again, given ``flat``, their values rounded to float64: the cells
    that lie exactly halfway between two doubles, and the finite cells
    whose ``flat`` is infinite.

    An x87 long double carries 64 significant bits. Where its double is
    normal, the 11 below the double's 53 are 0x400 exactly when it lies
    halfway, which one mask over the significand words finds. Cells
    whose ``flat`` is zero, subnormal, the smallest normal (whose
    neighbour below is subnormal) or infinite, and every cell of another
    long-double format, take ``_across`` instead.
    """
    if not _LOW_BITS_MARK_HALFWAY:
        return np.flatnonzero(_across(cells, flat))
    again = (cells.view(np.uint64)[::2] & 0x7FF) == 0x400
    size = np.abs(flat)
    if not (size.min() > _TINY and size.max() < np.inf):
        odd = np.flatnonzero(~((size > _TINY) & (size < np.inf)))
        again[odd] = _across(cells[odd], flat[odd])
    return np.flatnonzero(again)


def _across(cells, flat):
    """Which cells lie halfway between two doubles, or are finite where
    their ``flat`` is not, in any long-double format that holds the
    halfway points. A halfway cell is the mean of ``flat`` and the
    double across from it, and 2 * cell - flat is that double exactly;
    2 * cell - inf is a double too. The caller ignores over- and
    underflow."""
    across = 2 * cells - flat
    return (cells != flat) & (across == across.astype(np.float64))


def _read_strtold(chunk: bytes):
    """Each cell of a chunk ending in a line end, read by ``strtold``,
    and the offset of the separator after it; None if a byte is not one
    ``strtold`` may read or a cell is not read whole."""
    body = chunk.translate(_CELL_BYTES)
    if b"!" in body:
        return None
    try:
        cells = np.fromstring(body, dtype=np.longdouble, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    ends = np.flatnonzero(np.frombuffer(body, np.uint8) == 44)
    return (cells, ends) if cells.size == ends.size else None


def _read_decimals(chunk: bytes):
    """Each cell of a chunk ending in a line end, as ``_read_strtold``
    reads it, for a chunk whose every cell is ``[+-]digits[.digits]``,
    then optionally ``(e|E)[+-]digits``, with at most 18 significant
    digits and a power of ten 10^k with |k| <= 27 (the fraction digits
    taken from the ``e`` part); None for any other chunk.

    Without its ``.``, the cell's significand is an integer m, which
    ``np.fromstring`` reads to int64 3 to 4 times as fast as ``strtold``
    reads the cell, and which also releases the GIL. m < 10^18 < 2^63 and
    10^|k| = 2^|k| * 5^|k| with 5^27 < 2^63 are both exact in a long
    double of 64 or more significand bits, so m * 10^k or m / 10^-k is one
    correctly rounded operation on exact operands (Clinger's fast path):
    the correctly rounded long double that ``strtold`` returns.

    The digit counts come from byte offsets. The token values are
    trusted only below 10^18: numpy reads a token too long for int64 as
    +INT64_MAX, whatever its sign. numpy's parse also refuses every byte
    that is not a digit, a leading sign or a separator, except
    whitespace and NUL, which are refused here first; so the integer
    text takes no translation table, only ``bytes.replace``, and the
    shorter the calls that hold the GIL, the less the threads wait.
    """
    raw = np.frombuffer(chunk, np.uint8)
    text = chunk.replace(b"\n", b",").replace(b"e", b",").replace(b"E", b",")
    # every "." and every separator, which is now a ","
    at = ((np.frombuffer(text, np.uint8) | 2) == 46).nonzero()[0]
    rank = _SEP_RANK.take(raw.take(at))
    # each follows a digit (so no part is empty or a bare sign), and a
    # cell's come in the order ".", "e", end
    if ((raw.take(at - 1) - 48) > 9).any() or (
            (rank[:-1] < 3) & (rank[1:] <= rank[:-1])).any():
        return None
    text = text.replace(b".", b"")
    if any(space in text for space in (b" ", b"\t", b"\r", b"\v", b"\f",
                                        b"\0")):
        return None
    try:
        tokens = np.fromstring(text, dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    dot = (rank == 1).nonzero()[0]
    if tokens.size != at.size - dot.size:
        return None
    # a cell's tokens are its significand and, after an "e", its
    # exponent; the r-th "." lies in token dot[r] - r, and the digits from
    # it to the next separator are fraction digits. scale is 27 + k
    scale = np.full(tokens.size, 27)
    scale[dot - np.arange(dot.size)] = 28 - np.diff(at).take(dot)
    sig = (rank == 2).nonzero()[0]
    sig -= np.searchsorted(dot, sig)
    scale[sig] += tokens[sig + 1]
    significand = np.ones(tokens.size, bool)
    significand[sig + 1] = False
    m = tokens.compress(significand)
    scale = scale.compress(significand)
    top = scale.max()
    if m.min() <= -10 ** 18 or m.max() >= 10 ** 18 or scale.min() < 0 \
            or top > 54:
        return None
    # a cell is m / 10^-k or m * 10^k, the other factor being 1: one
    # operation rounds
    cells = m.astype(np.longdouble)
    cells /= _POW10_DOWN.take(scale)
    if top > 27:
        cells *= _POW10_UP.take(scale)
    ends = at.compress(rank == 3)
    # "-0" and "-0.0" read as the integer 0: give them back their sign
    zero = (m == 0).nonzero()[0]
    if zero.size:
        start = np.where(zero, ends.take(zero - 1) + 1, 0)
        cells[zero[raw.take(start) == 45]] *= -1
    return cells, ends


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
    # a row is a line of the file, blank lines included
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            label = int(line)
        except ValueError as exc:
            raise ParseError(f"row {lineno}: {exc}") from exc
        if not -1 <= label < 2**63:
            raise ParseError(f"row {lineno}: label outside [-1, 2^63 - 1]")
        labels.append(label)
    if not labels:
        raise EmptyError(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)


def _as_int64(labels):
    """``labels`` as int64; a value that the cast would change, such as
    0.5 or 2^63, raises ParseError."""
    values = np.asarray(labels)
    try:
        with np.errstate(invalid="ignore"):
            out = values.astype(np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"labels must be int64 integers: {exc}") from exc
    if not np.array_equal(out, values):
        raise ParseError("labels must be int64 integers")
    return out


def save_labels(labels, path) -> None:
    """Write one integer per line, order preserved, as ``load_labels``
    reads them back: a 1-D vector of integers in [-1, 2^63 - 1].

    Each distinct label is formatted once, and the lines are gathered
    from that table.
    """
    labels = _as_int64(labels)
    if labels.ndim != 1:
        raise ShapeMismatchError(
            f"labels must be 1-D, got shape {labels.shape}")
    if labels.size == 0:
        raise EmptyError("label vector is empty")
    if labels.min() < -1:
        raise ParseError("labels must be at least -1")
    ids, index = np.unique(labels, return_inverse=True)
    table = np.array([f"{v}\n" for v in ids.tolist()], dtype=object)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(table[index].tolist()))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def canonicalize_labels(labels) -> np.ndarray:
    """Relabel non-negative labels to 0..k-1 by ascending first occurrence.

    Every negative label becomes -1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    # key 0 for every negative label and l + 1 for label l, formed in
    # uint64, where -1 + 1 wraps to 0 and 2^63 - 1 + 1 does not overflow
    keys = np.maximum(labels, -1).view(np.uint64)
    keys += np.uint64(1)
    keys, pos = sort_keys(keys, int(keys.max(initial=0)) + 1)
    # the sort is stable, so each run of equal keys starts at its
    # label's first occurrence; the run of key 0 starts none
    start = np.empty(len(keys), dtype=bool)
    start[:1] = keys[:1] != 0
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    first = pos.compress(start)
    # each label's rank among the first occurrences; -1 for key 0
    rank = np.empty(len(first) + 1, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    rank[-1] = -1
    out = np.empty(len(keys), dtype=np.int64)
    out[pos] = rank.take(np.cumsum(start) - 1)
    return out

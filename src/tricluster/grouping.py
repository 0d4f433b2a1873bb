"""Integer keys sorted, and labels grouped and renumbered, by one
stable packed-key sort."""

from __future__ import annotations

import numpy as np


def sort_keys(keys: np.ndarray, bound: int):
    """Stable sort of non-negative integer keys below ``bound``.

    Returns (sorted keys, positions): ``keys[positions]`` is sorted, and
    equal keys keep their order. Each key is packed with its position
    into one int64 word, key << bits | position, and the words are
    sorted by ``np.sort``, which is several times faster than a stable
    ``argsort`` on int64; the words are distinct, so any sort of them is
    stable. When the words would need more than 63 bits, the keys go to
    ``np.argsort(kind="stable")``, which gives the same result.
    """
    n = len(keys)
    bits = (n - 1).bit_length() if n else 0
    if bound > 1 << (63 - bits):
        positions = np.argsort(keys, kind="stable")
        return keys[positions], positions
    words = keys.astype(np.int64)
    words <<= bits
    positions = np.arange(n, dtype=np.int64)
    words |= positions
    words.sort()
    np.bitwise_and(words, (1 << bits) - 1, out=positions)
    words >>= bits
    return words, positions


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Whether each of the sorted keys starts a run of equal keys."""
    fresh = np.empty(len(sorted_keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=fresh[1:])
    return fresh


def group_by_label(labels: np.ndarray):
    """Sort-based group-by over the non-negative entries of ``labels``.

    Returns (ids, order, starts, counts): the distinct labels ascending,
    the indices of labelled entries grouped by label (ascending index
    within a group), and each group's offset and length in ``order``.
    The labelled entries are grouped by one ``sort_keys``, which is
    stable.
    """
    labelled = (labels >= 0).nonzero()[0]
    sorted_labels, pos = sort_keys(labels.take(labelled),
                                   int(labels.max(initial=-1)) + 1)
    order = labelled.take(pos)
    starts = run_starts(sorted_labels).nonzero()[0]
    counts = np.diff(starts, append=len(order))
    return sorted_labels.take(starts), order, starts, counts


def first_occurrence_order(order: np.ndarray, starts: np.ndarray):
    """The groups of ``group_by_label`` by ascending first member: the
    order of the anomaly groups and of the canonical cluster ids."""
    return np.argsort(order.take(starts))


def canonicalize_labels(labels) -> np.ndarray:
    """Relabel non-negative labels to 0..k-1 by ascending first occurrence.

    Every negative label becomes -1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    _, order, starts, counts = group_by_label(labels)
    rank = np.empty(len(starts), dtype=np.int64)
    rank[first_occurrence_order(order, starts)] = np.arange(len(starts))
    out = np.full(len(labels), -1, dtype=np.int64)
    out[order] = np.repeat(rank, counts)
    return out

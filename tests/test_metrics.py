import math
from fractions import Fraction

import numpy as np
import pytest

from tricluster import (
    EmptyError,
    LengthMismatchError,
    ParseError,
    anomaly_prf,
    ari,
    nmi,
)


def ari_pair_oracle(t, p):
    """O(n^2) pair counting with expected-index correction."""
    t = np.asarray(t)
    p = np.asarray(p)
    n = len(t)
    same_t = t[:, None] == t[None, :]
    same_p = p[:, None] == p[None, :]
    iu = np.triu_indices(n, k=1)
    a = int((same_t[iu] & same_p[iu]).sum())       # agree-agree
    b = int((same_t[iu] & ~same_p[iu]).sum())
    c = int((~same_t[iu] & same_p[iu]).sum())
    d = int((~same_t[iu] & ~same_p[iu]).sum())
    total = a + b + c + d
    expected = (a + b) * (a + c) / total
    maximum = 0.5 * ((a + b) + (a + c))
    if maximum == expected:
        return 1.0
    return (a - expected) / (maximum - expected)


def nmi_entropy_oracle(t, p):
    """Direct entropy computation from the joint distribution."""
    t = list(t)
    p = list(p)
    n = len(t)
    joint = {}
    for a, b in zip(t, p):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    pt = {}
    pp = {}
    for a in t:
        pt[a] = pt.get(a, 0) + 1
    for b in p:
        pp[b] = pp.get(b, 0) + 1
    h_t = -sum(c / n * math.log(c / n) for c in pt.values())
    h_p = -sum(c / n * math.log(c / n) for c in pp.values())
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = 0.0
    for (a, b), c in joint.items():
        mi += c / n * math.log((c / n) / (pt[a] / n * pp[b] / n))
    return mi / ((h_t + h_p) / 2.0)


def test_ari_identical():
    assert ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0


def test_ari_relabel_invariant():
    assert ari([0, 0, 1, 1, 2], [5, 5, 3, 3, 9]) == 1.0


def test_ari_worked_example():
    t = [0, 0, 1, 1]
    p = [0, 1, 0, 1]
    assert ari(t, p) == pytest.approx(ari_pair_oracle(t, p), abs=1e-12)


def test_ari_matches_pair_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 120))
        t = rng.integers(-1, 4, n)
        p = rng.integers(-1, 5, n)
        assert ari(t, p) == pytest.approx(ari_pair_oracle(t, p), abs=1e-10)


def test_ari_exact_at_large_n():
    # the product of the two marginal pair counts passes int64 here
    n = 200_000
    rng = np.random.default_rng(6)
    t = np.repeat(np.arange(5), n // 5)
    p = t.copy()
    flip = rng.choice(n, n // 100, replace=False)
    p[flip] = (p[flip] + rng.integers(1, 5, len(flip))) % 5
    counts = np.zeros((5, 5), dtype=np.int64)
    np.add.at(counts, (t, p), 1)

    def pairs(c):
        return sum(int(x) * (int(x) - 1) // 2 for x in c)

    sum_cells = pairs(counts.ravel())
    sum_a, sum_b = pairs(counts.sum(axis=1)), pairs(counts.sum(axis=0))
    expected = Fraction(sum_a * sum_b, n * (n - 1) // 2)
    want = (sum_cells - expected) / (Fraction(sum_a + sum_b, 2) - expected)
    assert ari(t, p) == pytest.approx(float(want), rel=1e-12)


def test_ari_symmetric():
    rng = np.random.default_rng(1)
    t = rng.integers(0, 4, 50)
    p = rng.integers(0, 3, 50)
    assert ari(t, p) == pytest.approx(ari(p, t), abs=1e-12)


def test_ari_at_most_one():
    rng = np.random.default_rng(2)
    for _ in range(40):
        t = rng.integers(0, 5, 30)
        p = rng.integers(0, 5, 30)
        assert ari(t, p) <= 1.0 + 1e-12


def test_nmi_identical():
    assert nmi([0, 1, 1, 2], [0, 1, 1, 2]) == 1.0


def test_nmi_of_a_relabelling_is_exactly_one():
    # the entropy and mutual information sums round differently: the
    # formula alone scores 196 of these 1 800 pairs below 1.0
    rng = np.random.default_rng(26)
    for _ in range(600):
        n = int(rng.integers(1, 400))
        t = rng.integers(-1, int(rng.integers(1, 12)), n)
        relabel = rng.permutation(40)[:t.max() + 2] - 1
        assert nmi(t, t) == 1.0
        assert nmi(t, relabel[t + 1]) == 1.0
        assert nmi(relabel[t + 1], t) == 1.0


def test_nmi_constant_prediction_zero():
    assert nmi([0, 1, 0, 1], [3, 3, 3, 3]) == 0.0


def test_nmi_both_trivial():
    assert nmi([0, 0, 0], [7, 7, 7]) == 1.0


def test_nmi_matches_entropy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 150))
        t = rng.integers(0, 4, n)
        p = rng.integers(0, 3, n)
        assert nmi(t, p) == pytest.approx(nmi_entropy_oracle(t, p), abs=1e-12)


def test_nmi_symmetric():
    rng = np.random.default_rng(4)
    t = rng.integers(0, 4, 80)
    p = rng.integers(0, 6, 80)
    assert nmi(t, p) == pytest.approx(nmi(p, t), abs=1e-12)


def test_anomaly_prf_exact_match():
    t = [0, -1, 1, -1]
    assert anomaly_prf(t, t) == (1.0, 1.0, 1.0)


def test_anomaly_prf_no_predicted():
    assert anomaly_prf([-1, 0, -1], [0, 0, 1]) == (0.0, 0.0, 0.0)


def test_anomaly_prf_worked_example():
    # 10 true anomalies, 20 predicted, overlap 5
    t = np.zeros(100, dtype=int)
    p = np.zeros(100, dtype=int)
    t[:10] = -1
    p[5:25] = -1
    precision, recall, f1 = anomaly_prf(t, p)
    assert precision == pytest.approx(0.25)
    assert recall == pytest.approx(0.5)
    assert f1 == pytest.approx(1.0 / 3.0)


def test_anomaly_prf_never_nan():
    cases = [
        ([0, 0], [0, 0]),
        ([-1, -1], [0, 0]),
        ([0, 0], [-1, -1]),
    ]
    for t, p in cases:
        out = anomaly_prf(t, p)
        assert all(not math.isnan(v) for v in out)
        if t == p:
            continue
        assert out[2] == 0.0


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        ari([1, 2], [1, 2, 3])
    with pytest.raises(LengthMismatchError):
        nmi([1], [1, 2])
    with pytest.raises(LengthMismatchError):
        anomaly_prf([1], [1, 2])


@pytest.mark.parametrize("metric", [ari, nmi, anomaly_prf])
@pytest.mark.parametrize("labels", [
    [0.5, 1.5], [0.0, float("nan")], [2.0**63, 0.0], [2**64, 0],
])
def test_labels_that_are_not_int64_integers_are_parse_error(metric, labels):
    # the int64 cast used to truncate: ari([0.5, 1.5], [0, 1]) was 1.0
    with pytest.raises(ParseError, match="int64 integers"):
        metric(labels, [0, 1])
    with pytest.raises(ParseError, match="int64 integers"):
        metric([0, 1], labels)


def test_integral_float_labels_score():
    assert ari([0.0, 1.0, 1.0], [0, 1, 1]) == 1.0
    assert nmi(np.array([-1.0, 2.0]), [5, 7]) == 1.0
    assert anomaly_prf([-1.0, 0.0], [-1, 0]) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("metric", [ari, nmi, anomaly_prf])
def test_empty_label_vectors_are_empty_error(metric):
    with pytest.raises(EmptyError):
        metric([], [])
    with pytest.raises(EmptyError):
        metric(np.empty(0, np.int64), np.empty(0, np.int64))

import hashlib

import numpy as np
import pytest

from tricluster import (
    DegenerateError,
    ShapeMismatchError,
    import_embedding,
    pca2,
    save_matrix,
)
from tricluster import projection
from tricluster.projection import embedding_from_array


def jacobi_eigh(a, tol=1e-14, max_sweeps=100):
    """Independent dense symmetric eigensolver (cyclic Jacobi rotations)."""
    a = a.copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0:
                    t = 1.0
                c = 1.0 / np.sqrt(t**2 + 1)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    eigvals = np.diag(a).copy()
    order = np.argsort(-eigvals)
    return eigvals[order], v[:, order]


def align_signs(got, want):
    """Per-column sign flip so the columns can be compared directly."""
    out = got.copy()
    for c in range(got.shape[1]):
        if np.dot(got[:, c], want[:, c]) < 0:
            out[:, c] = -out[:, c]
    return out


def test_axis_aligned_identity_up_to_sign():
    # symmetric construction: sample covariance is exactly diag(4, 1) scaled
    x = np.array([
        [2.0, 0.0], [-2.0, 0.0], [4.0, 0.0], [-4.0, 0.0],
        [0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [0.0, -2.0],
    ])
    emb = pca2(x)
    aligned = align_signs(emb.coords, x)
    assert np.allclose(aligned, x, atol=1e-9)


def test_identical_points_give_zeros():
    x = np.ones((5, 3)) * 2.5
    emb = pca2(x)
    assert np.allclose(emb.coords, 0.0)


def gapped_rows(rng, n=200, d=30):
    # rotated axes scaled 20, 12, 3, 1, 1, ...: the top two eigenvalues
    # lie far above the 13th, so block subspace iteration finds them
    scales = np.concatenate([[20.0, 12.0, 3.0], np.ones(d - 3)])
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (rng.standard_normal((n, d)) * scales) @ rotation.T


def test_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    inputs = [rng.standard_normal((20, 5)) * rng.uniform(0.5, 3.0, 5)
              for trial in range(5)]
    inputs += [gapped_rows(np.random.default_rng(s)) for s in (0, 1)]
    for x in inputs:
        emb = pca2(x)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        eigvals, eigvecs = jacobi_eigh(cov)
        expected = centered @ eigvecs[:, :2]
        aligned = align_signs(emb.coords, expected)
        assert np.allclose(aligned, expected, atol=1e-9)


def test_captured_variance_matches_top2_eigenvalues():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((50, 6))
    emb = pca2(x)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    eigvals, _ = jacobi_eigh(cov)
    got = emb.coords.var(axis=0, ddof=1).sum()
    assert abs(got - eigvals[:2].sum()) < 1e-9


def test_translation_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 4))
    shift = rng.uniform(-100, 100, 4)
    a = pca2(x).coords
    b = pca2(x + shift).coords
    assert np.allclose(a, b, atol=1e-9)


def test_deterministic_and_seed_independent():
    # pca2 takes no seed, so repeated calls agree bit for bit
    rng = np.random.default_rng(2)
    x = rng.standard_normal((25, 3))
    a = pca2(x).coords
    assert np.array_equal(a, pca2(x).coords)


def test_one_dimensional_input_pads_zero_column():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((10, 1))
    emb = pca2(x)
    assert emb.coords.shape == (10, 2)
    assert np.all(emb.coords[:, 1] == 0.0)


def test_too_few_points():
    with pytest.raises(DegenerateError):
        pca2(np.zeros((2, 3)))


def test_sign_convention_peak_positive():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 5))
    emb = pca2(x)
    # recompute the component directions from the output itself
    centered = x - x.mean(axis=0)
    for col in range(2):
        w, *_ = np.linalg.lstsq(centered, emb.coords[:, col], rcond=None)
        peak = np.argmax(np.abs(w))
        assert w[peak] > 0


def test_import_embedding_passthrough(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.standard_normal((100, 8))
    coords = rng.standard_normal((100, 2))
    p = tmp_path / "emb.csv"
    save_matrix(coords, p, fmt="csv")
    emb = import_embedding(p, data)
    assert emb.source == "imported"
    assert np.array_equal(emb.coords, coords)


def test_import_embedding_row_mismatch(tmp_path):
    rng = np.random.default_rng(6)
    data = rng.standard_normal((100, 8))
    p = tmp_path / "emb.csv"
    save_matrix(rng.standard_normal((99, 2)), p, fmt="csv")
    with pytest.raises(ShapeMismatchError):
        import_embedding(p, data)


def test_import_embedding_needs_two_columns(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((100, 8))
    p = tmp_path / "emb.csv"
    save_matrix(rng.standard_normal((100, 3)), p, fmt="csv")
    with pytest.raises(ShapeMismatchError):
        import_embedding(p, data)


def test_embedding_from_array_validates():
    with pytest.raises(ShapeMismatchError):
        embedding_from_array(np.zeros((5, 2)), np.zeros((6, 3)))


def general_rows():
    rng = np.random.default_rng(21)
    return rng.standard_normal((300, 9)) @ rng.uniform(-2.0, 2.0, (9, 9))


def tie_heavy_rows():
    # every sign pattern of 5 columns: the covariance is diagonal, and
    # axes 0, 2 and 3 tie for the largest eigenvalue
    signs = 1.0 - 2.0 * ((np.arange(32)[:, None] >> np.arange(5)) & 1)
    return signs * np.array([2.0, 1.0, 2.0, 2.0, 1.0])


def sha256(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def skip_unless_lapack_as_pinned():
    # the general rows' pins hold where the BLAS and LAPACK calls
    # themselves give the bits they gave where the pins were taken
    data = general_rows()
    x = data - data.mean(axis=0)
    cov = x.T @ x / (len(x) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if sha256(cov, eigvals, eigvecs, x @ eigvecs[:, -1]) != (
            "9c48b817ac8990c7a25707f2081a47e5d23466e9724a73550c5055ceb4ddd245"):
        pytest.skip("this BLAS or LAPACK rounds differently from the pin's")


def test_pinned_embedding_bits():
    # a change to the embedding's bits must be deliberate. The tie-heavy
    # rows make every BLAS and LAPACK step exact, so their pin holds on
    # any build
    tie = pca2(tie_heavy_rows()).coords
    assert tie[:2].tolist() == [[2.0, 2.0], [-2.0, 2.0]]
    assert sha256(tie) == (
        "6d7233721e3cdd1c4f36715b9199e5e19af800568439e7ee16abc8e9473d4021")
    skip_unless_lapack_as_pinned()
    assert sha256(pca2(general_rows()).coords) == (
        "b1499ac6772dbd0299dd7e8525657bc5c14874e13fa866d85b51149adfa22586")


def test_pinned_iterated_embedding_bits():
    skip_unless_lapack_as_pinned()
    assert sha256(pca2(gapped_rows(np.random.default_rng(30))).coords) == (
        "98850cbad1441962972192dd71da40aa66350d6fb0ea9b9e76c14168a2625fbf")


def eigh_path(monkeypatch, x):
    """pca2's output when the iteration is never accepted."""
    with monkeypatch.context() as m:
        m.setattr(projection, "_top2_iterated", lambda cov: None)
        return pca2(x).coords


def refuse_eigh(cov):
    raise AssertionError("the full eigh ran")


def test_gapped_input_is_iterated(monkeypatch):
    # the Weyl bound certifies these, so the full eigh never runs
    for seed in (0, 1, 3, 30):
        x = gapped_rows(np.random.default_rng(seed))
        want = eigh_path(monkeypatch, x)
        with monkeypatch.context() as m:
            m.setattr(projection, "_top2_eigh", refuse_eigh)
            got = pca2(x).coords
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def diagonal_rows(s):
    # rows +-s_j e_j: the mean is exactly 0 and the covariance is exactly
    # diagonal, so eigh finds the axes and the projection is exact
    return np.vstack([np.diag(s), -np.diag(s)])


def test_tied_top_eigenvalues_keep_eigh_tie_order(monkeypatch):
    s = np.full(30, 0.5)
    s[[3, 11]] = 4.0
    x = diagonal_rows(s)
    got = pca2(x).coords
    assert np.array_equal(got, eigh_path(monkeypatch, x))
    assert np.array_equal(got, x[:, [3, 11]])


def test_top_axes_outside_start_block_fall_back_to_eigh(monkeypatch):
    # the start block spans axes 0..23 only, and the iteration never
    # leaves that span: it converges to axes 23 and 22, exact eigenpairs
    # with zero residual, but not the top two. The tail term of the Weyl
    # bound must refuse them
    x = diagonal_rows(np.concatenate(
        [np.ones(12), np.arange(2.0, 14.0), np.arange(20.0, 26.0)]))
    got = pca2(x).coords
    assert np.array_equal(got, eigh_path(monkeypatch, x))
    assert np.array_equal(got, x[:, [29, 28]])


def test_gapless_input_falls_back_to_eigh(monkeypatch):
    x = np.random.default_rng(8).standard_normal((200, 30))
    assert np.array_equal(pca2(x).coords, eigh_path(monkeypatch, x))


def test_default_leaves_input_unchanged():
    x = gapped_rows(np.random.default_rng(5))
    before = x.copy()
    pca2(x)
    assert np.array_equal(x, before)


def test_copy_false_centres_in_place_with_the_same_bits():
    x = gapped_rows(np.random.default_rng(5)) + 7.0
    want = pca2(x).coords
    centered = x - x.mean(axis=0)
    got = pca2(x, copy=False).coords
    assert sha256(got) == sha256(want)
    # the matrix now holds the centred rows, to the bit
    assert sha256(x) == sha256(centered)


def read_only(x):
    x.setflags(write=False)
    return x


# inputs that copy=False must not change: they are not writeable float64
FOREIGN_INPUTS = {
    "int64": lambda x: np.round(x * 100.0).astype(np.int64),
    "float32": lambda x: x.astype(np.float32),
    "read_only": read_only,
}


@pytest.mark.parametrize("kind", FOREIGN_INPUTS)
def test_copy_false_copies_an_input_it_cannot_centre(kind):
    x = FOREIGN_INPUTS[kind](gapped_rows(np.random.default_rng(6)) + 3.0)
    before = x.copy()
    got = pca2(x, copy=False).coords
    assert np.array_equal(x, before) and x.dtype == before.dtype
    assert sha256(got) == sha256(pca2(x).coords)


def test_copy_false_allocates_no_second_matrix(traced_peak):
    # the centred copy alone would take x.nbytes; in place, the largest
    # array is the 500 x 500 covariance, an eighth of x
    x = gapped_rows(np.random.default_rng(4), n=4000, d=500)
    assert traced_peak(pca2, x, copy=False) < x.nbytes / 2


@pytest.mark.parametrize("k", [-600, 250, 600])
def test_out_of_range_scales_take_the_in_range_bits(k):
    # a covariance that under- or overflows, or that LAPACK would scale
    # by a factor of its own (at 2^250 its entries pass 2^484), is formed
    # from the centred data scaled by a power of two; every float
    # operation commutes with that scaling, so the embedding is the
    # in-range one scaled by 2^k
    rng = np.random.default_rng(12)
    for d in (6, 30):
        data = rng.standard_normal((300, d)) * np.linspace(1, 4, d)
        want = np.ldexp(pca2(data).coords, k)
        scaled = np.ldexp(data, k)
        got = pca2(scaled, copy=False).coords
        assert got.tobytes() == want.tobytes()
        # the centred matrix is scaled back
        assert scaled.tobytes() == (
            np.ldexp(data - data.mean(axis=0), k).tobytes())

"""Robust 2-D geometric predicates.

orient2d and incircle are evaluated in plain float64 first, guarded by a
static forward error bound. When the magnitude of the determinant falls
below the bound, the sign is recomputed exactly in integers: every
float64 is an integer times a power of two, so scaling all inputs by one
common power of two makes them integers without changing the
determinant's sign (Shewchuk 1997). The float bounds hold only while no
product underflows, so a call whose products sum to less than ``_TINY``
in magnitude takes the exact stage too. The returned sign is that of
the true determinant.

Coordinates are float64: Python floats or np.float64 scalars.
"""

from __future__ import annotations

# Machine epsilon derived constants (error bounds for the f64 filter).
_CCW_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ICC_ERR = (10.0 + 96.0 * 2.0**-53) * 2.0**-53
# Below this sum of product magnitudes a product may have underflowed to
# zero or a subnormal, whose absolute error of up to 2^-1075 the relative
# bounds above do not cover; above it, their slack does.
_TINY = 2.0**-960


def orient2d(ax, ay, bx, by, cx, cy) -> int:
    """Sign of twice the signed area of triangle (a, b, c).

    +1 if c lies left of the directed line a->b (counter-clockwise),
    -1 if right (clockwise), 0 if exactly collinear.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright

    # a product that underflows rounds to zero, so a zero product is
    # exact only when one of its differences is zero
    if detleft > 0.0:
        if detright < 0.0:
            return 1
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright > 0.0:
            return -1
        detsum = -detleft - detright
    elif ax == cx or by == cy:
        # det is -(ay - cy) * (bx - cx), whose factors' signs are exact
        return _sign(cy - ay) * _sign(bx - cx)
    else:
        detsum = abs(detright)

    if detsum >= _TINY:
        errbound = _CCW_ERR * detsum
        if det >= errbound:
            return 1
        if det <= -errbound:
            return -1
    return _orient2d_exact(ax, ay, bx, by, cx, cy)


def _orient2d_exact(ax, ay, bx, by, cx, cy) -> int:
    ax, ay, bx, by, cx, cy = _common_scale(ax, ay, bx, by, cx, cy)
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def incircle(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """Sign test: is d inside the circumcircle of counter-clockwise (a, b, c)?

    +1 inside, -1 outside, 0 exactly on the circle. The caller must supply
    (a, b, c) in counter-clockwise order for the sign convention to hold.
    """
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )

    permanent = (
        alift * (abs(bdxcdy) + abs(cdxbdy))
        + blift * (abs(cdxady) + abs(adxcdy))
        + clift * (abs(adxbdy) + abs(bdxady))
    )
    if permanent >= _TINY:
        errbound = _ICC_ERR * permanent
        if det > errbound:
            return 1
        if det < -errbound:
            return -1
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    ax, ay, bx, by, cx, cy, dx, dy = _common_scale(
        ax, ay, bx, by, cx, cy, dx, dy)
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return _sign(det)


def _common_scale(*values) -> list:
    """The integers values[i] * 2**k for the smallest k >= 0 that makes all
    of them integers. Both determinants are homogeneous in their inputs, so
    their sign is unchanged by the common factor."""
    ratios = [v.as_integer_ratio() for v in values]
    top = max(d for _, d in ratios).bit_length()
    # every denominator is a power of two
    return [n << (top - d.bit_length()) for n, d in ratios]


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0

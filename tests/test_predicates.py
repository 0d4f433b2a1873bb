"""The exact stage of the predicates against rational-arithmetic oracles.

The oracles evaluate the same determinants in ``fractions.Fraction``; the
exact stage under test evaluates them in integers scaled by a common
power of two, so their signs must agree on every input.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from tricluster.predicates import (
    _incircle_exact,
    _orient2d_exact,
    incircle,
    orient2d,
)


def _sign(f):
    return (f > 0) - (f < 0)


def orient2d_oracle(ax, ay, bx, by, cx, cy):
    fax, fay = Fraction(ax), Fraction(ay)
    fbx, fby = Fraction(bx), Fraction(by)
    fcx, fcy = Fraction(cx), Fraction(cy)
    return _sign((fax - fcx) * (fby - fcy) - (fay - fcy) * (fbx - fcx))


def incircle_oracle(ax, ay, bx, by, cx, cy, dx, dy):
    fdx, fdy = Fraction(dx), Fraction(dy)
    adx = Fraction(ax) - fdx
    ady = Fraction(ay) - fdy
    bdx = Fraction(bx) - fdx
    bdy = Fraction(by) - fdy
    cdx = Fraction(cx) - fdx
    cdy = Fraction(cy) - fdy
    return _sign(
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def ulp_neighbours(x):
    """x and the floats 1 and 2 ulp above and below it."""
    up = math.nextafter(x, math.inf)
    down = math.nextafter(x, -math.inf)
    return [x, up, math.nextafter(up, math.inf),
            down, math.nextafter(down, -math.inf)]


# the set keeps 0.0 and drops -0.0, which compares equal, so -0.0 is
# appended on its own
SPECIAL = sorted({
    v
    for base in (0.0, 5e-324, sys.float_info.min, 1e-300, 1.0, 3.0, 1e300,
                 sys.float_info.max)
    for x in (base, -base)
    for v in ulp_neighbours(x)
    if math.isfinite(v)
}) + [-0.0]


def mixed_types(values, rng):
    """The same values as Python floats or np.float64 scalars."""
    return [np.float64(v) if rng.randrange(2) else float(v) for v in values]


def random_inputs(rng, arity, count):
    """Draws from the special values, from small integers, and from
    magnitudes 1e-200 to 1e150, each mixed with 1-2 ulp neighbours."""
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            values = [rng.choice(SPECIAL) for _ in range(arity)]
        elif kind == 1:
            values = [float(rng.randint(-4, 4)) for _ in range(arity)]
        else:
            scale = 10.0 ** rng.randint(-200, 150)
            values = [rng.choice(ulp_neighbours(rng.randint(-3, 3) * scale))
                      for _ in range(arity)]
        yield mixed_types(values, rng)


def integer_sets():
    """Lattices, Pythagorean rings (cocircular) and points on a line
    (collinear), as exact integer coordinates."""
    yield [(x, y) for x in range(4) for y in range(4)]
    yield [(x, 2 * y - 3) for x in range(3) for y in range(3)]
    ring = [(x, y) for x in range(-5, 6) for y in range(-5, 6)
            if x * x + y * y == 25]
    yield ring
    yield [(x + 2, y - 7) for x, y in ring] + [(2, -7)]
    yield [(t, 3 * t + 1) for t in range(-4, 5)]


def scaled_integer_sets():
    # below 1e-150 the float products underflow: incircle's near 1e-78
    # and orient2d's near 1e-155
    for pts in integer_sets():
        for factor in (1.0, 1e-78, 1e-80, 1e-150, 1e-156, 1e-162, 1e-300,
                       1e150):
            yield [(x * factor, y * factor) for x, y in pts]


def test_exact_stage_agrees_with_rational_oracle_on_random_inputs():
    rng = random.Random(7)
    for args in random_inputs(rng, 6, 3000):
        assert _orient2d_exact(*args) == orient2d_oracle(*args), args
    for args in random_inputs(rng, 8, 3000):
        assert _incircle_exact(*args) == incircle_oracle(*args), args


def test_exact_stage_agrees_with_rational_oracle_on_special_values():
    # every ordered pair of special values as point a, against fixed
    # points b, c, d that also mix extremes
    b = (sys.float_info.max, -1e-300)
    c = (-0.0, 5e-324)
    d = (1e300, sys.float_info.min)
    for ax, ay in itertools.product(SPECIAL, repeat=2):
        args = (ax, ay, *b, *c)
        assert _orient2d_exact(*args) == orient2d_oracle(*args), args
        args = (ax, ay, *b, *c, *d)
        assert _incircle_exact(*args) == incircle_oracle(*args), args


# np.float64 scalars warn where the float stage overflows at 1e150 scale
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_exact_stage_on_cocircular_and_collinear_integer_sets():
    rng = random.Random(11)
    saw_zero = {"orient2d": False, "incircle": False}
    for pts in scaled_integer_sets():
        for tri in itertools.combinations(pts, 3):
            args = mixed_types([v for p in tri for v in p], rng)
            want = orient2d_oracle(*args)
            assert _orient2d_exact(*args) == want, args
            assert orient2d(*args) == want, args
            saw_zero["orient2d"] |= want == 0
        quads = list(itertools.permutations(pts, 4))
        for quad in rng.sample(quads, min(len(quads), 400)):
            args = mixed_types([v for p in quad for v in p], rng)
            want = incircle_oracle(*args)
            assert _incircle_exact(*args) == want, args
            assert incircle(*args) == want, args
            saw_zero["incircle"] |= want == 0
    assert all(saw_zero.values())


def test_float_stage_agrees_with_rational_oracle_at_underflowing_scales():
    # products of coordinates below about 1e-162 underflow; the float
    # stage must hand such calls to the exact stage, never read a sign
    # off a product rounded to zero or to a subnormal
    rng = random.Random(13)
    for exponent in range(160, 301):
        scale = 10.0 ** -exponent
        for _ in range(40):
            args = [rng.uniform(-1.0, 1.0) * scale for _ in range(6)]
            assert orient2d(*args) == orient2d_oracle(*args), args
        for _ in range(10):
            args = [rng.uniform(-1.0, 1.0) * scale for _ in range(8)]
            assert incircle(*args) == incircle_oracle(*args), args
    assert orient2d(0.0, 0.0, 1e-200, 0.0, 0.0, 1e-200) == 1
    assert orient2d(0.0, 0.0, 0.0, 1e-200, 1e-200, 0.0) == -1


def test_exact_stage_takes_integers_beyond_float_precision():
    # Python ints are exact at any size; 2**60 + 1 is no float64, and
    # rounded to floats these three points are collinear
    big = 2**60
    args = (0, 0, big, big + 1, 2 * big, 2 * big + 1)
    assert _orient2d_exact(*args) == orient2d_oracle(*args) == -1
    args = (big, 0, 0, big, -big, 0, 0, -big - 1)
    assert _incircle_exact(*args) == incircle_oracle(*args) == -1


def test_orient2d_when_one_product_underflows_to_zero():
    # (a - c).x * (b - c).y rounds up to the smallest subnormal and
    # (a - c).y * (b - c).x down to zero, yet the exact second product is
    # the larger, since (b - c).y rounded up and (b - c).x down: the
    # signs of the rounded products alone would give +1
    args = tuple(float.fromhex(h) for h in (
        "0x1.fff0000020004p-541", "0x1.000800001ffffp-540",
        "0x1.0000000001000p-500", "0x1.fffe000200fe1p-500",
        "0x1.fff0000000002p-541", "0x1.0007fffffffffp-540"))
    assert (args[0] - args[4]) * (args[3] - args[5]) == 5e-324
    assert (args[1] - args[5]) * (args[2] - args[4]) == 0.0
    assert orient2d(*args) == orient2d_oracle(*args) == -1

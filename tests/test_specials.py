import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scipy import special

from relaygeom.specials import erfcx, i0e

# Reference values computed independently with 30-digit arithmetic
# (mpmath: erf(x), erfc(x) * exp(x^2)) and frozen. Only the erfcx column is
# checked; erf itself is not part of the package.
REFERENCE = [
    (0.25, 0.276326390168236933, 0.770346547730996744),
    (0.5, 0.520499877813046538, 0.615690344192925875),
    (1.0, 0.842700792949714869, 0.427583576155807004),
    (1.5, 0.966105146475310727, 0.321585416454317502),
    (2.0, 0.995322265018952734, 0.255395676310505744),
    (2.5, 0.999593047982555041, 0.210806364061143581),
    (3.0, 0.999977909503001415, 0.17900115118138995),
    (3.5, 0.999999256901627659, 0.155293655608894297),
    (4.0, 0.9999999845827421, 0.13699945762506139),
    (5.0, 0.99999999999846254, 0.110704637733068626),
    (6.0, 0.999999999999999978, 0.0927765678005383544),
]


@pytest.mark.parametrize("x, erf_ref, erfcx_ref", REFERENCE)
def test_reference_values(x, erf_ref, erfcx_ref):
    assert erfcx(x) == pytest.approx(erfcx_ref, rel=1e-13)


def test_erfcx_consistent_with_erfc():
    for x in np.linspace(0.0, 5.0, 51):
        assert erfcx(float(x)) * math.exp(-float(x) ** 2) == pytest.approx(
            math.erfc(float(x)), rel=1e-12
        )


def test_erfcx_negative_argument():
    # erfcx(-x) = 2 exp(x^2) - erfcx(x)
    assert erfcx(-1.0) == pytest.approx(5.008980080762283, rel=1e-13)
    assert erfcx(-3.0) == pytest.approx(2 * math.exp(9.0) - 0.17900115118138995, rel=1e-13)


def test_erfcx_decreasing_for_positive():
    xs = np.linspace(0.0, 30.0, 301)
    vals = erfcx(xs)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_array_and_scalar_interfaces():
    arr = erfcx(np.array([0.0, 1.0, -1.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (3,)
    assert isinstance(erfcx(0.7), float)
    assert isinstance(erfcx(2.5), float)
    assert isinstance(erfcx(-0.3), float)


#: erfcx bit for bit at negative, zero and positive arguments, on both sides
#: of the split at |x| = 2 and at the special values, as ``float.hex``.
ERFCX_PINNED = {
    -26.0: "0x1.32f288d4422dap+976",
    -5.0: "0x1.0c3d39209549cp+37",
    -2.0: "0x1.b3c37c70be791p+6",
    -1.999: "0x1.b2051d055da94p+6",
    -0.5: "0x1.f3cde5a30aa92p+0",
    -1e-300: "0x1.0000000000000p+0",
    -0.0: "0x1.0000000000000p+0",
    1e-300: "0x1.0000000000000p+0",
    0.5: "0x1.3b3bc3c98b0f3p-1",
    1.999: "0x1.05a27380d9545p-2",
    2.0: "0x1.058671b52c776p-2",
    5.0: "0x1.c57239e943d1ap-4",
    30.0: "0x1.33f3abfd60d70p-6",
    1e5: "0x1.7a9f084b432a8p-18",
    math.inf: "0x0.0p+0",
    -math.inf: "inf",
    math.nan: "nan",
}


def test_erfcx_pinned_values():
    # -0.0 == 0.0 as a dict key, so +0.0 is checked on its own
    xs = [*ERFCX_PINNED, 0.0]
    want = [*ERFCX_PINNED.values(), "0x1.0000000000000p+0"]
    assert [float(v).hex() for v in erfcx(np.array(xs))] == want
    assert [erfcx(x).hex() for x in xs] == want


#: i0e bit for bit on both sides of the split at |x| = 8 and at the special
#: values, as ``float.hex``.
I0E_PINNED = {
    0.0: "0x1.0000000000000p+0",
    0.5: "0x1.4a42101eb0f46p-1",
    -0.5: "0x1.4a42101eb0f46p-1",
    3.0: "0x1.f1aa2b7054e7ap-3",
    float(np.nextafter(8.0, 0.0)): "0x1.25bf8fe241e6ap-3",
    8.0: "0x1.25bf8fe241e6ap-3",
    float(np.nextafter(8.0, 9.0)): "0x1.25bf8fe241e6ap-3",
    30.0: "0x1.2b9b157f9e6a2p-4",
    1e5: "0x1.4ab6626c55b41p-10",
    math.inf: "0x0.0p+0",
    -math.inf: "0x0.0p+0",
    math.nan: "nan",
}


def test_i0e_pinned_values():
    xs, want = list(I0E_PINNED), list(I0E_PINNED.values())
    assert [float(v).hex() for v in i0e(np.array(xs))] == want
    assert [i0e(x).hex() for x in xs] == want
    # a 2-D array that mixes both branches, the shape MassProfile passes
    grid = i0e(np.array(xs).reshape(3, 4))
    assert grid.shape == (3, 4)
    assert [float(v).hex() for v in grid.ravel()] == want


def test_erfcx_stacked_rows_match_row_calls():
    rows = np.stack([np.linspace(-3.0, 30.0, 67), np.geomspace(1e-3, 1e3, 67)])
    both = erfcx(rows)
    assert both.shape == rows.shape
    for row, got in zip(rows, both):
        assert np.array_equal(got, erfcx(row))


class TestI0e:
    def test_matches_scipy_on_both_branches(self):
        xs = np.concatenate(
            [
                np.linspace(0.0, 8.0, 4001),
                np.linspace(8.0, 60.0, 2601),
                np.geomspace(60.0, 1e5, 500),
            ]
        )
        ref = special.i0e(xs)
        assert np.max(np.abs(i0e(xs) / ref - 1.0)) < 1e-14

    def test_both_sides_of_the_split(self):
        for x in (np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)):
            assert i0e(float(x)) == pytest.approx(float(special.i0e(x)), rel=1e-15)

    def test_value_at_zero(self):
        assert i0e(0.0) == 1.0

    @given(x=st.floats(0.0, 1e5))
    def test_even(self, x):
        assert i0e(-x) == i0e(x)

    def test_mixed_branches_match_each_branch_alone(self):
        # (panels, 24), the shape MassProfile passes, straddling the split
        xs = np.geomspace(1e-3, 700.0, 30 * 24).reshape(30, 24)
        small = xs <= 8.0
        mixed = i0e(xs)
        assert small.any() and not small.all()
        assert np.array_equal(mixed[small], i0e(xs[small]))
        assert np.array_equal(mixed[~small], i0e(xs[~small]))

    def test_scalar_and_array_interfaces(self):
        assert isinstance(i0e(3.0), float)
        arr = i0e(np.array([0.0, 3.0, 30.0]))
        assert isinstance(arr, np.ndarray) and arr.shape == (3,)

"""Property tests against mpmath over the region the special_functions
docstring states, with its per-band bounds.

Derandomized and bounded, so every run draws the same examples.
"""

import math

import pytest

from eulerlab.special_functions import eta, eta_prime, gamma, zeta, zeta_prime

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
assume = hypothesis.assume

PROPERTY = hypothesis.settings(derandomize=True, max_examples=25, deadline=None, database=None)

# Re(s) band -> bounds on |f - mpmath| / max(1, |mpmath|) for eta, zeta,
# eta' and zeta', -2 <= Im(s) <= 2 (the module docstring's table)
SUM_BANDS = {
    (-4.0, -3.0): (2e-10, 6e-12, 4e-10, 1e-11),
    (-3.0, -2.0): (2e-11, 1e-12, 3e-11, 2e-12),
    (-2.0, -1.5): (6e-13, 1e-13, 3e-12, 3e-13),
    (-1.5, -1.0): (2e-13, 3e-14, 5e-13, 8e-14),
    (-1.0, -0.5): (4e-14, 1e-14, 8e-14, 3e-14),
    (-0.5, 0.0): (2e-14, 5e-15, 3e-14, 1e-14),
    (0.0, 0.5): (3e-15, 2e-15, 7e-15, 4e-15),
    (0.5, 10.0): (1e-15, 4e-15, 2e-15, 7e-15),
}

# functional-equation bands: relative error of eta and zeta
REFLECTED_BANDS = {
    (-10.0, -4.0): 2e-14,
    (-50.0, -10.0): 1e-13,
    (-170.0, -50.0): 3e-13,
}

SUMMED = [
    (eta, lambda s: mpmath.altzeta(s)),
    (zeta, lambda s: mpmath.zeta(s)),
    (eta_prime, lambda s: mpmath.diff(mpmath.altzeta, s)),
    (zeta_prime, lambda s: mpmath.zeta(s, 1, 1)),
]


def in_band(band, u, im):
    lo, hi = band
    re = lo + u * (hi - lo)
    assume(re < hi)
    return complex(re, im)


def oracle(f, s):
    with mpmath.workdps(30):
        return complex(f(mpmath.mpc(s.real, s.imag)))


unit = st.floats(0.0, 1.0)
im_strip = st.floats(-2.0, 2.0)


@pytest.mark.parametrize("index", range(len(SUMMED)), ids=["eta", "zeta", "eta_prime", "zeta_prime"])
@PROPERTY
@hypothesis.given(band=st.sampled_from(sorted(SUM_BANDS)), u=unit, im=im_strip)
def test_summed_functions_within_band_bounds(index, band, u, im):
    s = in_band(band, u, im)
    assume(abs(s - 1.0) >= 0.05)  # zeta's pole
    f, exact = SUMMED[index]
    expected = oracle(exact, s)
    assert abs(f(s) - expected) <= SUM_BANDS[band][index] * max(1.0, abs(expected))


@pytest.mark.parametrize("f, name", [(eta, "altzeta"), (zeta, "zeta")])
@PROPERTY
@hypothesis.given(band=st.sampled_from(sorted(REFLECTED_BANDS)), u=unit, im=im_strip)
def test_functional_equation_within_band_bounds(f, name, band, u, im):
    s = in_band(band, u, im)
    expected = oracle(getattr(mpmath, name), s)
    assert abs(f(s) - expected) <= REFLECTED_BANDS[band] * abs(expected)


@pytest.mark.parametrize(
    "re_range, im_range, bound",
    [((-10.0, 10.0), (-2.0, 2.0), 2e-14),
     ((-170.0, 170.0), (-2.0, 2.0), 4e-13),
     ((-10.0, 10.0), (-300.0, 300.0), 6e-13)],
)
@PROPERTY
@hypothesis.given(u=unit, v=unit)
def test_gamma_relative_error(re_range, im_range, bound, u, v):
    s = complex(
        re_range[0] + u * (re_range[1] - re_range[0]),
        im_range[0] + v * (im_range[1] - im_range[0]),
    )
    # off the poles, and where Gamma is a normal double
    assume(abs(s.imag) > 1e-3 or abs(s.real - round(s.real)) > 1e-3)
    expected = oracle(mpmath.gamma, s)
    assume(math.ldexp(1.0, -1000) < abs(expected) < math.ldexp(1.0, 1000))
    assert abs(gamma(s) - expected) <= bound * abs(expected)

"""Smooth cutoff building blocks: ranges, plateaus, and the telescoping
identity behind the dyadic partition."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslab.bumps import glue, lp_profile, radial_bump, smoothstep


def test_glue_endpoints():
    assert glue(-1.0) == 0.0
    assert glue(0.0) == 0.0
    assert glue(1.0) > 0.0
    assert np.isclose(glue(1e6), 1.0, atol=1e-10)


def test_glue_of_tiny_t_is_zero_without_a_warning():
    t = np.array([5e-324, 1e-310, 1e-3, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = glue(t)
    assert np.array_equal(v, [0.0, 0.0, np.exp(-1000.0), np.exp(-2.0)])


def test_smoothstep_is_zero_one_transition():
    s = np.linspace(-2.0, 3.0, 501)
    v = smoothstep(s)
    assert np.all(v[s <= 0.0] == 0.0)
    assert np.allclose(v[s >= 1.0], 1.0)
    assert np.all(np.diff(v) >= -1e-15)


def test_smoothstep_midpoint_symmetry():
    s = np.linspace(0.0, 1.0, 101)
    v = smoothstep(s)
    assert np.allclose(v + smoothstep(1.0 - s), 1.0, atol=1e-12)


def test_lp_profile_plateau_and_support():
    r = np.linspace(0.0, 3.0, 601)
    v = lp_profile(r)
    assert np.allclose(v[r <= 1.0], 1.0)
    assert np.all(v[r >= 2.0] == 0.0)
    assert np.all((0.0 <= v) & (v <= 1.0))


def test_lp_profile_telescopes_to_one():
    # sum_j [phi(r/2^j) - phi(r/2^{j-1})] collapses to 1 for r in the
    # covered range; this is the partition property the band projectors use
    r = np.linspace(0.05, 50.0, 1000)
    total = np.zeros_like(r)
    for j in range(-8, 10):
        total += lp_profile(r / 2.0**j) - lp_profile(2.0 * r / 2.0**j)
    assert np.allclose(total, 1.0, atol=1e-12)


def test_radial_bump_flat_core_and_support():
    r = np.linspace(0.0, 2.0, 401)
    v = radial_bump(r, flat=0.5)
    assert np.allclose(v[r <= 0.5], 1.0)
    assert np.all(v[r >= 1.0] == 0.0)


def test_radial_bump_zero_flat_peaks_at_origin():
    v = radial_bump(np.array([0.0, 0.5, 0.99, 1.5]), flat=0.0)
    assert v[0] == 1.0
    assert v[1] < 1.0
    assert v[2] > 0.0
    assert v[3] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-10.0, 10.0))
def test_glue_is_bounded_and_nonnegative(t):
    v = float(glue(t))
    assert 0.0 <= v <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 10.0))
def test_lp_profile_is_monotone(r):
    assert lp_profile(r) >= lp_profile(r + 0.01) - 1e-12


def _smoothstep_full(t):
    """smoothstep's quotient evaluated at every point, the reference that
    the band-only evaluation must reproduce bit for bit."""
    a = glue(t)
    b = glue(1.0 - np.asarray(t, dtype=float))
    return a / (a + b + np.finfo(float).tiny)


def _radial_bump_full(r, flat=0.5):
    r = np.asarray(r, dtype=float)
    return _smoothstep_full((1.0 - r) / (1.0 - flat))


_PROFILES = {
    "smoothstep": (smoothstep, _smoothstep_full),
    "lp_profile": (lp_profile,
                   lambda r: _smoothstep_full(2.0 - np.asarray(r, float))),
    "radial_bump": (radial_bump, _radial_bump_full),
    "radial_bump_flat0": (functools.partial(radial_bump, flat=0.0),
                          functools.partial(_radial_bump_full, flat=0.0)),
}
_EDGES = [0.0, -0.0, 1.0, 2.0, -1.0, 0.5, 1e-310, -1e-310, 1.0 - 1e-17,
          1.0 - 1e-16, 5e-324, np.inf, -np.inf, np.nan]


def _assert_same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.int64),
                          np.asarray(want).view(np.int64))


@pytest.mark.parametrize("name", sorted(_PROFILES))
def test_profiles_match_the_full_formula_bit_for_bit(name):
    fn, ref = _PROFILES[name]
    rng = np.random.default_rng(3)
    cube = rng.uniform(-3.0, 3.0, (12, 12, 12))
    cube.flat[:len(_EDGES)] = _EDGES
    for x in _EDGES + [np.array(e) for e in _EDGES] + [cube]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fn(x)
        _assert_same(got, ref(x))

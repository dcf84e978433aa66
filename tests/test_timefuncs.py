import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from bitfuse.errors import InvalidSpec
from bitfuse.timefuncs import TimeFunction, as_timefunction


def test_constant_and_polynomial_evaluation():
    f = TimeFunction.constant(2.5)
    assert f(0.0) == 2.5 and f(100.0) == 2.5
    g = TimeFunction.polynomial((1.0, 2.0, 3.0))  # 1 + 2t + 3t^2
    assert g(2.0) == 1 + 4 + 12
    np.testing.assert_allclose(g(np.array([0.0, 1.0])), [1.0, 6.0])


def test_piecewise_constant_right_open_pieces():
    f = TimeFunction.piecewise_constant((1.0, 3.0), (10.0, 20.0, 30.0))
    np.testing.assert_array_equal(f(np.array([0.0, 0.99, 1.0, 2.9, 3.0, 99.0])),
                                  [10.0, 10.0, 20.0, 20.0, 30.0, 30.0])


def test_product_matches_pointwise_product():
    f = TimeFunction.polynomial((1.0, 1.0))
    g = TimeFunction.piecewise_constant((2.0,), (3.0, 5.0))
    h = f * g
    t = np.linspace(0, 5, 101)
    np.testing.assert_allclose(h(t), f(t) * g(t), rtol=1e-14)
    np.testing.assert_allclose((f + g)(t), f(t) + g(t), rtol=1e-14)


def test_integral_exact_for_polynomial():
    f = TimeFunction.polynomial((0.0, 0.0, 3.0))  # 3t^2, integral t^3
    for t in (0.0, 0.5, 2.0, 7.0):
        assert f.integral(t) == pytest.approx(t**3, rel=1e-14, abs=1e-14)


def test_integral_exact_across_pieces():
    f = TimeFunction.piecewise_constant((1.0, 2.0), (1.0, 3.0, 0.5))
    # integral: t on [0,1], 1 + 3(t-1) on [1,2], 4 + 0.5(t-2) beyond
    assert f.integral(0.5) == pytest.approx(0.5)
    assert f.integral(1.5) == pytest.approx(1.0 + 1.5)
    assert f.integral(4.0) == pytest.approx(4.0 + 1.0)


def test_serialization_round_trip():
    for f in (
        TimeFunction.constant(2.0),
        TimeFunction.polynomial((1.0, -0.5, 0.25)),
        TimeFunction.piecewise_constant((1.0, 2.0), (0.1, 0.2, 0.3)),
    ):
        assert TimeFunction.from_dict(f.to_dict()) == f


def test_as_timefunction_coercion():
    assert as_timefunction(3.0) == TimeFunction.constant(3.0)
    assert as_timefunction({"type": "constant", "value": 1.0}) == TimeFunction.constant(1.0)
    with pytest.raises(InvalidSpec):
        as_timefunction({"type": "mystery"})


def test_invalid_breakpoints_rejected():
    with pytest.raises(InvalidSpec):
        TimeFunction(breaks=(2.0, 1.0), coeffs=((1.0,), (2.0,), (3.0,)))
    with pytest.raises(InvalidSpec):
        TimeFunction.piecewise_constant((1.0,), (1.0,))


def _per_piece(f, t, polys, offset):
    """The reference evaluation: offset[k] + polyval(t, polys[k]) -
    polyval(edge_k, polys[k]) on the masked times of each piece k, or
    polyval alone when offset is None."""
    t = np.asarray(t, dtype=float)
    edges = (0.0,) + f.breaks
    idx = f.piece_index(t)
    out = np.empty_like(t, dtype=float)
    for k, c in enumerate(polys):
        sel = idx == k
        if np.any(sel):
            v = npoly.polyval(t[sel], c)
            out[sel] = v if offset is None else offset[k] + v - npoly.polyval(edges[k], c)
    return out


@st.composite
def time_functions(draw):
    coeff = st.floats(-10.0, 10.0)
    kind = draw(st.sampled_from(("constant", "polynomial", "piecewise")))
    if kind == "constant":
        return TimeFunction.constant(draw(coeff))
    if kind == "polynomial":
        return TimeFunction.polynomial(draw(st.lists(coeff, min_size=1, max_size=4)))
    breaks = sorted(draw(st.sets(st.floats(0.01, 15.0), min_size=1, max_size=4)))
    pieces = [tuple(draw(st.lists(coeff, min_size=1, max_size=3))) for _ in range(len(breaks) + 1)]
    return TimeFunction(breaks=tuple(breaks), coeffs=tuple(pieces))


@settings(max_examples=300, deadline=None)
@given(f=time_functions(), ts=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=30),
       scalar=st.booleans())
def test_evaluation_and_integral_match_per_piece_reference(f, ts, scalar):
    # a one-piece function skips the masks; every function gives the
    # bytes of the per-piece evaluation, scalar in, float out
    t = ts[0] if scalar else np.array(ts + list(f.breaks))
    anti = [npoly.polyint(np.asarray(c)) for c in f.coeffs]
    edges = (0.0,) + f.breaks
    base = [0.0]
    for k in range(1, len(anti)):
        a = anti[k - 1]
        base.append(base[-1] + npoly.polyval(edges[k], a) - npoly.polyval(edges[k - 1], a))
    for got, want in ((f(t), _per_piece(f, t, [np.asarray(c) for c in f.coeffs], None)),
                      (f.integral(t), _per_piece(f, t, anti, base))):
        if scalar:
            assert type(got) is float
        assert np.asarray(got).tobytes() == want.tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruskam.fourier import (FourierSeries, dir_derivative, next_fast_len,
                              partial_x, product, strip_norm, tail, truncate)

GOLD = (1.0, (1.0 + math.sqrt(5.0)) / 2.0)


def sine(d, k, amplitude=1.0):
    """The series of amplitude * sin(<k, x>)."""
    k = tuple(k)
    mk = tuple(-c for c in k)
    if k == mk:
        return FourierSeries.zero(d)
    a = complex(amplitude) / 2j
    return FourierSeries.from_coeffs(d, {k: a, mk: -a})


def random_series(rng, d=2, cutoff=3, shape=(1, 1), real=False):
    box = shape + (2 * cutoff + 1,) * d
    data = rng.standard_normal(box) + 1j * rng.standard_normal(box)
    f = FourierSeries(d, shape, cutoff, data)
    if real:
        f = 0.5 * (f + f.conj_function())
    return f


# ----------------------------------------------------------------------
# truncate
# ----------------------------------------------------------------------

def test_truncate_drops_high_modes():
    f = FourierSeries.from_coeffs(2, {(0, 0): 1.0, (3, 0): 0.5})
    g = truncate(f, 2)
    assert g.coeffs() == {(0, 0): pytest.approx(np.array([[1.0]]))}
    assert g.cutoff == 2


def test_truncate_identity_above_cutoff():
    f = FourierSeries.from_coeffs(2, {(1, -1): 2.0 + 1j})
    assert truncate(f, 5) is f


def test_truncate_cos_to_constant_zero():
    f = FourierSeries.cosine(2, (1, 0))
    g = truncate(f, 0)
    assert g.max_abs_coeff() == 0.0


def test_truncate_composition_is_min():
    rng = np.random.default_rng(0)
    f = random_series(rng, cutoff=4)
    a = truncate(truncate(f, 3), 2)
    b = truncate(f, 2)
    assert np.array_equal(a.data, b.data)
    a = truncate(truncate(f, 1), 3)
    b = truncate(f, 1)
    assert np.array_equal(a.data, b.data)


def test_tail_complements_truncation():
    rng = np.random.default_rng(1)
    f = random_series(rng, cutoff=4)
    t = tail(f, 2)
    back = truncate(f, 2).pad(4) + t
    assert np.allclose(back.data, f.data, atol=1e-15)
    assert truncate(t, 2).max_abs_coeff() == 0.0


# ----------------------------------------------------------------------
# strip_norm
# ----------------------------------------------------------------------

def test_strip_norm_constant():
    f = FourierSeries.constant(2, 2.0)
    assert strip_norm(f, 1.0) == pytest.approx(2.0)


def test_strip_norm_cos_s0():
    f = FourierSeries.cosine(2, (1, 0))
    assert strip_norm(f, 0.0) == pytest.approx(1.0)


def test_strip_norm_cos_ln2():
    # frozen oracle: 1/2*e^{ln2} + 1/2*e^{ln2} = 2
    f = FourierSeries.cosine(2, (1, 0))
    assert strip_norm(f, math.log(2.0)) == pytest.approx(2.0)


def test_strip_norm_monotone_in_s():
    rng = np.random.default_rng(2)
    f = random_series(rng)
    assert strip_norm(f, 0.3) <= strip_norm(f, 0.7)


# ----------------------------------------------------------------------
# product
# ----------------------------------------------------------------------

def test_product_unit():
    rng = np.random.default_rng(3)
    g = random_series(rng)
    one = FourierSeries.constant(2, 1.0)
    h = product(one, g)
    assert np.allclose(h.data, g.pad(h.cutoff).data, atol=1e-13)


def test_product_conjugate_modes():
    f = FourierSeries.mode(2, (1, 0))
    g = FourierSeries.mode(2, (-1, 0))
    h = product(f, g)
    c = h.coeffs(tol=1e-13)
    assert set(c) == {(0, 0)}
    assert c[(0, 0)][0, 0] == pytest.approx(1.0)


def test_product_matches_grid_evaluation():
    # grid-evaluation oracle: pointwise multiplication on a sample of points
    rng = np.random.default_rng(4)
    f = random_series(rng, cutoff=2)
    g = random_series(rng, cutoff=3)
    h = product(f, g)
    for _ in range(20):
        x = rng.uniform(0, 2 * np.pi, size=2)
        assert h.evaluate(x)[0, 0] == pytest.approx(
            f.evaluate(x)[0, 0] * g.evaluate(x)[0, 0], abs=1e-12, rel=1e-12)


def test_product_matrix_shapes():
    rng = np.random.default_rng(5)
    A = random_series(rng, shape=(2, 3), cutoff=1)
    B = random_series(rng, shape=(3, 2), cutoff=1)
    C = product(A, B)
    assert C.shape == (2, 2)
    x = np.array([0.3, 1.1])
    assert np.allclose(C.evaluate(x), A.evaluate(x) @ B.evaluate(x),
                       atol=1e-12)
    with pytest.raises(ValueError):
        product(A, random_series(rng, shape=(2, 2), cutoff=1))


def test_product_scalar_broadcast():
    rng = np.random.default_rng(6)
    s = random_series(rng, shape=(1, 1), cutoff=1)
    A = random_series(rng, shape=(2, 2), cutoff=2)
    C = product(s, A)
    x = np.array([0.5, 0.25])
    assert np.allclose(C.evaluate(x), s.evaluate(x)[0, 0] * A.evaluate(x),
                       atol=1e-12)


def fftconvolve_product(f, g):
    """The product as entrywise scipy.signal.fftconvolve sums: a matrix
    entry against the scalar factor (matrix entry first), or sums over the
    inner index in order."""
    from scipy.signal import fftconvolve
    if f.is_scalar != g.is_scalar:
        mat, sca = (g.data, f.data) if f.is_scalar else (f.data, g.data)
        return np.array([[fftconvolve(mat[i, j], sca[0, 0])
                          for j in range(mat.shape[1])]
                         for i in range(mat.shape[0])])
    rows, inner, cols = f.shape[0], f.shape[1], g.shape[1]
    box = (2 * (f.cutoff + g.cutoff) + 1,) * f.d
    out = np.zeros((rows, cols) + box, dtype=complex)
    for i in range(rows):
        for j in range(cols):
            acc = np.zeros(box, dtype=complex)
            for m in range(inner):
                acc += fftconvolve(f.data[i, m], g.data[m, j])
            out[i, j] = acc
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shapes", [((1, 1), (2, 3)), ((3, 2), (1, 1)),
                                    ((1, 1), (1, 1)), ((2, 3), (3, 2))])
def test_product_bitwise_equals_fftconvolve(d, shapes):
    # the wrapped grid kernel agrees with the fftconvolve sums to within
    # 4e-15 of their largest entry; a factor of cutoff 0 (a broadcast
    # multiply) reproduces them bit for bit
    rng = np.random.default_rng(7 + d)
    for c1 in range(7):
        for c2 in range(7):
            f = random_series(rng, d=d, cutoff=c1, shape=shapes[0])
            g = random_series(rng, d=d, cutoff=c2, shape=shapes[1])
            got, want = product(f, g).data, fftconvolve_product(f, g)
            if c1 == 0 or c2 == 0:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() \
                    <= 4e-15 * np.abs(want).max()


def test_next_fast_len_matches_scipy():
    from scipy import fft as sfft
    assert [next_fast_len(n) for n in range(1, 4097)] \
        == [sfft.next_fast_len(n) for n in range(1, 4097)]


# ----------------------------------------------------------------------
# dir_derivative
# ----------------------------------------------------------------------

def test_dir_derivative_constant_is_zero():
    f = FourierSeries.constant(2, 3.0)
    assert dir_derivative(f, (1.0, 2.0)).max_abs_coeff() == 0.0


def test_dir_derivative_single_mode():
    f = sine(2, (1, 0))
    g = dir_derivative(f, (1.0, 0.0))
    c = FourierSeries.cosine(2, (1, 0))
    assert np.allclose(g.data, c.data, atol=1e-15)


def test_dir_derivative_round_trip():
    rng = np.random.default_rng(7)
    f = random_series(rng, cutoff=3)
    # remove the mean, differentiate, then divide by i<k,omega>
    mean = f.coeff((0, 0))[0, 0]
    g = dir_derivative(f, GOLD)
    rec = {}
    for k, v in g.coeffs().items():
        div = 1j * (k[0] * GOLD[0] + k[1] * GOLD[1])
        rec[k] = v / div
    h = FourierSeries.from_coeffs(2, rec, cutoff=3)
    target = f - FourierSeries.constant(2, mean).pad(3)
    assert np.allclose(h.data, target.data, atol=1e-12)


def test_dir_derivative_commutes_with_truncate():
    rng = np.random.default_rng(8)
    f = random_series(rng, cutoff=4)
    a = truncate(dir_derivative(f, GOLD), 2)
    b = dir_derivative(truncate(f, 2), GOLD)
    assert np.allclose(a.data, b.data, atol=1e-14)


def test_partial_x():
    f = FourierSeries.mode(2, (2, -1))
    g = partial_x(f, 1)
    assert g.coeff((2, -1))[0, 0] == pytest.approx(-1j)


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000), st.floats(0.0, 1.0))
def test_submultiplicativity(seed, s):
    rng = np.random.default_rng(seed)
    f = random_series(rng, cutoff=2)
    g = random_series(rng, cutoff=2)
    lhs = strip_norm(product(f, g), s)
    rhs = strip_norm(f, s) * strip_norm(g, s)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_reality_closure(seed):
    rng = np.random.default_rng(seed)
    f = random_series(rng, cutoff=2, real=True)
    g = random_series(rng, cutoff=2, real=True)
    assert f.reality_error() <= 1e-14
    assert (f + g).reality_error() <= 1e-13
    assert product(f, g).reality_error() <= 1e-12
    assert dir_derivative(f, GOLD).reality_error() <= 1e-12


def test_reality_error_detects_violation():
    f = FourierSeries.from_coeffs(2, {(1, 0): 1j})
    assert f.reality_error() > 0.5


def test_evaluate_real_for_real_series():
    rng = np.random.default_rng(9)
    f = random_series(rng, cutoff=3, real=True)
    x = rng.uniform(0, 2 * np.pi, 2)
    assert abs(f.evaluate(x)[0, 0].imag) <= 1e-12


@pytest.mark.parametrize("d,shape,cutoff", [(1, (1, 1), 5), (2, (2, 3), 4),
                                            (3, (2, 2), 2), (2, (1, 1), 0)])
def test_evaluate_batched_matches_pointwise_and_mode_sum(d, shape, cutoff):
    rng = np.random.default_rng(11 + d)
    f = random_series(rng, d=d, cutoff=cutoff, shape=shape)
    pts = rng.uniform(-40.0, 40.0, size=(9, d))
    batched = f.evaluate(pts)
    assert batched.shape == (9,) + shape
    scale = np.abs(f.data).sum()
    for p, x in enumerate(pts):
        single = f.evaluate(x)
        assert single.shape == shape
        assert np.abs(batched[p] - single).max() <= 1e-14 * scale
        # the definition, one exponential per mode
        direct = sum(c * np.exp(1j * np.dot(k, x))
                     for k, c in f.coeffs().items())
        assert np.abs(single - direct).max() <= 1e-13 * scale
    with pytest.raises(ValueError):
        f.evaluate(np.zeros(d + 1))

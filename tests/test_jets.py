import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import convolve

import totals_oracle
from test_fourier import sine
from test_hygiene import WORKLOAD_CONFIGS
from toruskam import cli, jets
from toruskam.config import load_config
from toruskam.fourier import (FourierSeries, partial_x, product, strip_norm,
                              truncate)
from toruskam.jets import (HamiltonianJet, LieSeriesDivergence, NormalForm,
                           _term_vf_bound, check_reality, component_x,
                           component_y, component_z, conjugate_jet,
                           jet_from_parts, lie_transform, matrix_zz,
                           matrix_zzbar, poisson_bracket, split_low_high,
                           vf_norm, weighted_degree)

D, N = 2, 2
ZD, ZN = (0,) * D, (0,) * N
GOLD = np.array([1.0, (1.0 + math.sqrt(5.0)) / 2.0])


def scalar_jet(f: FourierSeries) -> HamiltonianJet:
    return HamiltonianJet(D, N, {(ZD, ZN, ZN): f})


def y_jet(i: int, f: FourierSeries) -> HamiltonianJet:
    a = tuple(1 if t == i else 0 for t in range(D))
    return HamiltonianJet(D, N, {(a, ZN, ZN): f})


def random_jet(rng, degree=2, cutoff=1, real=False) -> HamiltonianJet:
    sigs = []
    for a0 in range(2):
        for a1 in range(2):
            for b in range(3):
                for c in range(3):
                    a = (a0, a1)
                    bb = (b % 2, b // 2)
                    cc = (c % 2, c // 2)
                    if weighted_degree((a, bb, cc)) <= degree:
                        sigs.append((a, bb, cc))
    terms = {}
    for sig in sigs:
        box = (1, 1) + (2 * cutoff + 1,) * D
        data = rng.standard_normal(box) + 1j * rng.standard_normal(box)
        terms[sig] = FourierSeries(D, (1, 1), cutoff, data)
    jet = HamiltonianJet(D, N, terms)
    if real:
        jet = 0.5 * (jet + conjugate_jet(jet))
    return jet


# ----------------------------------------------------------------------
# poisson bracket
# ----------------------------------------------------------------------

def test_bracket_canonical_pair():
    F = scalar_jet(sine(D, (1, 0)))
    G = y_jet(0, FourierSeries.constant(D, 1.0))
    H = poisson_bracket(F, G)
    cx = component_x(H)
    ref = FourierSeries.cosine(D, (1, 0))
    assert np.allclose(cx.pad(1).data, ref.data, atol=1e-14)
    assert len(H.terms) == 1


def test_bracket_antisymmetry():
    rng = np.random.default_rng(10)
    F = random_jet(rng)
    assert poisson_bracket(F, F).max_abs_coeff() <= 1e-13
    G = random_jet(rng)
    S = poisson_bracket(F, G) + poisson_bracket(G, F)
    assert S.max_abs_coeff() <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 500))
def test_jacobi_identity(seed):
    rng = np.random.default_rng(seed)
    F = random_jet(rng, cutoff=1)
    G = random_jet(rng, cutoff=1)
    H = random_jet(rng, cutoff=1)
    # keep representable: degree-2 brackets of degree-2 jets stay degree <= 2
    J = (poisson_bracket(F, poisson_bracket(G, H))
         + poisson_bracket(G, poisson_bracket(H, F))
         + poisson_bracket(H, poisson_bracket(F, G)))
    scale = max(F.max_abs_coeff(), G.max_abs_coeff(), H.max_abs_coeff())
    assert J.max_abs_coeff() <= 1e-11 * max(1.0, scale ** 3)


def test_bracket_dimension_mismatch():
    F = HamiltonianJet.zero(D, N)
    G = HamiltonianJet.zero(D, 1)
    with pytest.raises(ValueError):
        poisson_bracket(F, G)


# ----------------------------------------------------------------------
# vf_norm
# ----------------------------------------------------------------------

def test_vf_norm_zero():
    assert vf_norm(HamiltonianJet.zero(D, N), 0.5, 0.5) == 0.0


def test_vf_norm_constant_y_coefficient():
    c = np.array([0.25, 0.5])
    jet = y_jet(0, FourierSeries.constant(D, c[0])) \
        + y_jet(1, FourierSeries.constant(D, c[1]))
    assert vf_norm(jet, 0.5, 0.3) == pytest.approx(abs(c).sum())


def test_vf_norm_cosine_frozen_oracle():
    # frozen: X_P = (0, eps sin(x1) e1, 0, 0); r^{-2} * eps * 1 = 4e-3
    jet = scalar_jet(FourierSeries.cosine(D, (1, 0), amplitude=1e-3))
    assert vf_norm(jet, 0.0, 0.5) == pytest.approx(4e-3)


def test_vf_norm_subadditive():
    rng = np.random.default_rng(11)
    P, Q = random_jet(rng), random_jet(rng)
    s, r = 0.4, 0.6
    assert vf_norm(P + Q, s, r) <= vf_norm(P, s, r) + vf_norm(Q, s, r) + 1e-12


# ----------------------------------------------------------------------
# the FFT-grid products against the term-by-term loop
# ----------------------------------------------------------------------

def product_channels(f_sigs, _, g_sigs, __):
    """The pair products of the polynomial product F G as grid-kernel
    channels: (i, 0, j, 0, signature, 1) per pair of terms."""
    for i, s1 in enumerate(f_sigs):
        for j, s2 in enumerate(g_sigs):
            yield i, 0, j, 0, tuple(tuple(x + y for x, y in zip(u, v))
                                    for u, v in zip(s1, s2)), 1


def jet_product(F, G):
    """Polynomial product on the grid kernel: degree and cutoff overflow
    and the bilinear coupling of the unrepresented parts go to `tail`."""
    out, tail = {}, 0.0
    if F.terms and G.terms:
        out, tail = jets._grid_kernel(F, jets._Side(G), product_channels)
    if F.tail:
        tail += F.tail * (vf_norm(G, G.s_ref, G.r_ref) + G.tail)
    if G.tail:
        tail += G.tail * vf_norm(F, F.s_ref, F.r_ref)
    return replace(F, terms=out, tail=tail)


def oracle_term_vf_bound(sig, series, s, r):
    """The vector-field bound with one partial_x copy per axis."""
    a, b, c = sig
    g = weighted_degree(sig)
    sigma = strip_norm(series, s)
    out = 0.0
    if sum(a):
        out += sum(a) * sigma * r ** (g - 2)
    sx = sum(strip_norm(partial_x(series, i), s) for i in range(series.d))
    if sx:
        out += (1.0 / r ** 2) * sx * r ** g
    nz = sum(b) + sum(c)
    if nz:
        out += (1.0 / r) * nz * sigma * r ** (g - 1)
    return out


def oracle_vf_norm(P, s, r):
    return sum(oracle_term_vf_bound(sig, f, s, r)
               for sig, f in P.terms.items()) + P.tail


def d_x(P, i):
    return replace(P, terms={sig: partial_x(f, i)
                             for sig, f in P.terms.items()}, tail=0.0)


def _d_monomial(P, slot, j):
    """The partial of P in the j-th variable of signature slot 0 (y),
    1 (z) or 2 (zbar)."""
    out = {}
    for sig, f in P.terms.items():
        e = sig[slot]
        if e[j] == 0:
            continue
        low = list(sig)
        low[slot] = e[:j] + (e[j] - 1,) + e[j + 1:]
        out[tuple(low)] = f * e[j]
    return replace(P, terms=out, tail=0.0)


def d_y(P, i):
    return _d_monomial(P, 0, i)


def d_z(P, j):
    return _d_monomial(P, 1, j)


def d_zbar(P, j):
    return _d_monomial(P, 2, j)


def direct_product(f, g):
    """fourier.product of scalar series by direct convolution, no FFT."""
    return FourierSeries(f.d, (1, 1), f.cutoff + g.cutoff, convolve(
        f.data[0, 0], g.data[0, 0], method="direct")[None, None])


def shell_sums(f, s):
    """Per shell |k|_inf = j, the sums of |f(k)| e^{s|k|_1} and of
    |k|_1 |f(k)| e^{s|k|_1}, one mode at a time."""
    out = np.zeros((2, f.cutoff + 1))
    for k, v in f.coeffs().items():
        l1 = sum(abs(c) for c in k)
        mag = abs(v[0, 0]) * math.exp(s * l1)
        out[:, max((abs(c) for c in k), default=0)] += (mag, l1 * mag)
    return out


def shell_bound(f, g, m, s):
    """(strip norm, summed partials' strip norms) bound of the modes
    |k|_inf > m of f g: every shell pair (i, j) with i + j > m."""
    a, b = shell_sums(f, s), shell_sums(g, s)
    far = np.add.outer(np.arange(f.cutoff + 1), np.arange(g.cutoff + 1)) > m
    return ((np.outer(a[0], b[0]) * far).sum(),
            ((np.outer(a[1], b[0]) + np.outer(a[0], b[1])) * far).sum())


def oracle_pairs(P, Q, w=1, mul=product):
    """The term-by-term loop: one product per pair of terms, times w.
    Returns the kept terms and, per pair, (signature, box, dropped part,
    (w, f1, f2, m)): the dropped part is the whole product of an
    over-degree pair (m = -1), the modes beyond the cap m of a pair past the
    cutoff cap."""
    out, dropped = {}, []
    for (a1, b1, c1), f1 in P.terms.items():
        for (a2, b2, c2), f2 in Q.terms.items():
            sig = (tuple(x + y for x, y in zip(a1, a2)),
                   tuple(x + y for x, y in zip(b1, b2)),
                   tuple(x + y for x, y in zip(c1, c2)))
            fp = w * mul(f1, f2)
            m = -1 if weighted_degree(sig) > P.max_degree else fp.cutoff
            if m >= 0 and P.cutoff_cap is not None:
                m = min(m, P.cutoff_cap)
            if m < fp.cutoff:
                kept = truncate(fp, m) if m >= 0 else 0 * fp
                dropped.append((sig, fp.cutoff, fp - kept.pad(fp.cutoff),
                                (w, f1, f2, m)))
                if m < 0:
                    continue
                fp = kept
            out[sig] = out[sig] + fp if sig in out else fp
    return out, dropped


def oracle_vf_of(sig, sigma, sx, r):
    """`oracle_term_vf_bound` from the two strip-norm sums."""
    a, b, c = sig
    g = weighted_degree(sig)
    return (sum(a) * sigma * r ** (g - 2) + sx * r ** (g - 2)
            + (sum(b) + sum(c)) * sigma * r ** (g - 2))


def oracle_tail(dropped, s, r, shells=False):
    """Bound of the dropped parts, summed per (signature, box) first: their
    exact vector-field norm, or with `shells` the shell-sum bound."""
    keys = {}
    for sig, box, part, (w, f1, f2, m) in dropped:
        new = abs(w) * np.array(shell_bound(f1, f2, m, s)) if shells else part
        keys[sig, box] = keys[sig, box] + new if (sig, box) in keys else new
    if shells:
        return sum(oracle_vf_of(sig, *bound, r)
                   for (sig, _), bound in keys.items())
    return sum(oracle_term_vf_bound(sig, part, s, r)
               for (sig, _), part in keys.items())


def oracle_jet_product(self, other, shells=False, mul=product):
    out, dropped = oracle_pairs(self, other, mul=mul)
    cross = 0.0
    if self.tail:
        cross += self.tail * (oracle_vf_norm(other, other.s_ref, other.r_ref)
                              + other.tail)
    if other.tail:
        cross += other.tail * oracle_vf_norm(self, self.s_ref, self.r_ref)
    extra = oracle_tail(dropped, self.s_ref, self.r_ref, shells)
    return replace(self, terms=out, tail=extra + cross)


def oracle_poisson_bracket(F, G, shells=False, mul=product):
    """The channel loop: one term-by-term product per channel of
    <F_x,G_y> - <F_y,G_x> + i<F_z,G_zbar> - i<F_zbar,G_z>."""
    if (F.d, F.n) != (G.d, G.n):
        raise ValueError("dimension mismatch")
    channels = []
    for i in range(F.d):
        channels += [(1, d_x(F, i), d_y(G, i)), (-1, d_y(F, i), d_x(G, i))]
    for j in range(F.n):
        channels += [(1j, d_z(F, j), d_zbar(G, j)),
                     (-1j, d_zbar(F, j), d_z(G, j))]
    out = HamiltonianJet.zero(F.d, F.n, max_degree=max(F.max_degree,
                                                       G.max_degree),
                              cutoff_cap=F.cutoff_cap,
                              s_ref=F.s_ref, r_ref=F.r_ref)
    dropped = []
    for w, P, Q in channels:
        terms, drops = oracle_pairs(P, Q, w, mul)
        out = out + replace(P, terms=terms, tail=0.0)
        dropped += drops
    cross = 0.0
    if F.tail:
        cross += F.tail * oracle_vf_norm(G, G.s_ref, G.r_ref)
    if G.tail:
        cross += G.tail * oracle_vf_norm(F, F.s_ref, F.r_ref)
    tail = oracle_tail(dropped, F.s_ref, F.r_ref, shells)
    return replace(out, tail=tail + cross)


@pytest.fixture
def oracle(monkeypatch):
    """Run a callable with the term-by-term bracket and bound in place;
    with shells=True the bracket books the shell-sum bound as its tail."""
    def run(fn, *args, shells=False, **kw):
        with monkeypatch.context() as m:
            m.setattr(jets, "poisson_bracket",
                      lambda F, G, side=None: oracle_poisson_bracket(
                          F, G, shells))
            m.setattr(jets, "vf_norm", oracle_vf_norm)
            return fn(*args, **kw)
    return run


def signatures(d, n, degree):
    """Every signature of weighted degree <= degree for (d, n)."""
    out = []
    for a in itertools.product(range(degree // 2 + 1), repeat=d):
        for b in itertools.product(range(degree + 1), repeat=n):
            for c in itertools.product(range(degree + 1), repeat=n):
                if weighted_degree((a, b, c)) <= degree:
                    out.append((a, b, c))
    return out


def mixed_jet(rng, d, n, count, max_cutoff, degree=3, tail=0.0, **kw):
    """`count` random terms of weighted degree <= degree, each at its own
    cutoff in [0, max_cutoff] (the largest cutoff always occurs)."""
    sigs = signatures(d, n, degree)
    pick = rng.choice(len(sigs), size=min(count, len(sigs)), replace=False)
    terms = {}
    for t, idx in enumerate(pick):
        cut = max_cutoff if t == 0 else int(rng.integers(0, max_cutoff + 1))
        box = (1, 1) + (2 * cut + 1,) * d
        data = rng.standard_normal(box) + 1j * rng.standard_normal(box)
        terms[sigs[idx]] = FourierSeries(d, (1, 1), cut, data)
    return HamiltonianJet(d, n, terms, tail=tail, **kw)


def assert_jets_agree(got, ref, rtol=1e-12, upper=None):
    """Coefficients within rtol of the jet's largest one, equal output
    cutoffs.  A term only one side has must be rounding noise: some
    signatures cancel exactly in a bracket.  Without `upper` the tails agree
    within rtol; with it, got's tail lies between ref's (the exact dropped
    parts) and upper's (the shell-sum bound), up to rounding."""
    tol = rtol * ref.max_abs_coeff()
    for sig in set(got.terms) | set(ref.terms):
        if sig in got.terms and sig in ref.terms:
            g, f = got.terms[sig], ref.terms[sig]
            assert g.cutoff == f.cutoff, sig
            assert np.abs(g.data - f.data).max() <= tol, sig
        else:
            assert got.term(sig).max_abs_coeff() <= tol, sig
            assert ref.term(sig).max_abs_coeff() <= tol, sig
    if upper is None:
        assert got.tail == pytest.approx(ref.tail, rel=rtol, abs=0.0)
    else:
        assert ref.tail * (1 - rtol) <= got.tail <= upper.tail * (1 + 1e-9)


# (d, n, max cutoff of a factor, cutoff cap)
GRID_CASES = [(1, 1, 7, 9), (1, 2, 5, None), (2, 1, 4, 6), (2, 2, 3, 4),
              (3, 1, 2, 2), (3, 2, 2, None)]


@pytest.mark.parametrize("d, n, cut, cap", GRID_CASES)
def test_grid_jet_product_matches_pair_loop(oracle, d, n, cut, cap):
    rng = np.random.default_rng(100 * d + n)
    kw = dict(max_degree=4, cutoff_cap=cap, s_ref=0.3, r_ref=0.5)
    # degree-3 factors: pairs up to degree 6 overflow max_degree 4
    P = mixed_jet(rng, d, n, 7, cut, tail=1e-3, **kw)
    Q = mixed_jet(rng, d, n, 5, cut - 1, tail=2e-3, **kw)
    for F, G in ((P, Q), (Q, P), (P, P)):
        assert_jets_agree(jet_product(F, G), oracle_jet_product(F, G),
                          upper=oracle_jet_product(F, G, shells=True))
    over = [1 for a in P.terms for b in Q.terms
            if weighted_degree(tuple(tuple(x + y for x, y in zip(u, v))
                                     for u, v in zip(a, b))) > 4]
    assert over, "no over-degree pair in the case"
    if cap is not None:
        assert any(f.cutoff + g.cutoff > cap for f in P.terms.values()
                   for g in Q.terms.values())


@pytest.mark.parametrize("d, n, cut, cap", GRID_CASES)
def test_grid_bracket_and_lie_transform_match_pair_loop(oracle, d, n, cut,
                                                        cap):
    rng = np.random.default_rng(200 * d + n)
    kw = dict(max_degree=4, cutoff_cap=cap, s_ref=0.3, r_ref=0.5)
    H = mixed_jet(rng, d, n, 6, cut, degree=4, tail=1e-4, **kw)
    F = 1e-5 * mixed_jet(rng, d, n, 5, cut - 1, degree=2, tail=1e-3, **kw)
    # degree 3 against degree 4: brackets up to degree 5 overflow
    P = mixed_jet(rng, d, n, 6, cut - 1, degree=3, **kw)
    for A, B in ((H, F), (F, H), (H, P), (P, H)):
        assert_jets_agree(poisson_bracket(A, B), oracle_poisson_bracket(A, B),
                          upper=oracle_poisson_bracket(A, B, shells=True))
    assert poisson_bracket(H, P).tail > 0
    got = lie_transform(H, F, order=2)
    ref = oracle(lie_transform, H, F, order=2)
    upper = oracle(lie_transform, H, F, order=2, shells=True)
    assert_jets_agree(got.jet, ref.jet, upper=upper.jet)
    for g, lo, hi in zip([got.tail_bound] + got.term_norms,
                         [ref.tail_bound] + ref.term_norms,
                         [upper.tail_bound] + upper.term_norms):
        assert lo * (1 - 1e-12) <= g <= hi * (1 + 1e-9)


def test_bracket_box_edge_modes_come_from_their_own_pair():
    # one signature, two pairs: {A, B} is large in the box 1 + 1, {C, D}
    # tiny in the box 8 + 8.  Modes 2 < |k| <= 16 belong to the tiny pair
    # alone; a sum over the whole signature would put the large pair's
    # FFT rounding there.
    rng = np.random.default_rng(51)

    def series(cut, scale):
        box = (1, 1, 2 * cut + 1)
        return FourierSeries(1, (1, 1), cut, scale * (
            rng.standard_normal(box) + 1j * rng.standard_normal(box)))

    zero = (0,)
    F = HamiltonianJet(1, 1, {((1,), zero, zero): series(1, 1e6),
                              (zero, (1,), zero): series(8, 1e-6)})
    G = HamiltonianJet(1, 1, {(zero, zero, zero): series(1, 1.0),
                              (zero, zero, (1,)): series(8, 1.0)})
    scalar = (zero, zero, zero)
    got = poisson_bracket(F, G).terms[scalar]
    ref = oracle_poisson_bracket(F, G).terms[scalar]
    assert got.cutoff == ref.cutoff == 16
    tiny = product(F.terms[(zero, (1,), zero)],
                   G.terms[(zero, zero, (1,))]).max_abs_coeff()
    edge = np.abs(np.arange(-16, 17)) > 2
    err = np.abs(got.data[0, 0, edge] - ref.data[0, 0, edge]).max()
    assert err <= 1e-12 * tiny
    assert got.max_abs_coeff() > 1e4 * tiny


def sparse_jet(rng, d, n, count, max_cutoff, **kw):
    """Like `mixed_jet`, but each term has one to three random modes, so a
    product's shell bound can be tight."""
    sigs = signatures(d, n, 3)
    terms = {}
    for idx in rng.choice(len(sigs), size=min(count, len(sigs)),
                          replace=False):
        cut = int(rng.integers(0, max_cutoff + 1))
        modes = rng.integers(-cut, cut + 1, size=(int(rng.integers(1, 4)), d))
        terms[sigs[idx]] = FourierSeries.from_coeffs(
            d, {tuple(map(int, k)): complex(*rng.standard_normal(2))
                for k in modes}, cutoff=cut)
    return HamiltonianJet(d, n, terms, **kw)


def test_tail_bounds_exact_dropped_part_200_cases():
    # the booked tail is at least the vector-field norm of the exact dropped
    # modes, products by direct convolution, summed per (signature, box)
    rng = np.random.default_rng(7)
    seen = {"over-degree": 0, "cap-binding": 0, "real": 0}
    ratios = []
    for case in range(200):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        cut = (6, 3, 2)[d - 1]
        kw = dict(max_degree=int(rng.integers(3, 5)),
                  cutoff_cap=[None, int(rng.integers(0, 2 * cut))][case % 2],
                  s_ref=float(rng.uniform(0.0, 1.0)),
                  r_ref=float(rng.uniform(0.2, 1.0)))
        make = sparse_jet if case % 3 == 0 else mixed_jet
        F, G = (make(rng, d, n, int(rng.integers(1, 5)), cut, **kw)
                for _ in range(2))
        if case % 4 == 0:
            F, G = (0.5 * (J + conjugate_jet(J)) for J in (F, G))
            seen["real"] += jets._mirrors(F) is not None \
                and jets._mirrors(G) is not None
        for op, ref in ((poisson_bracket, oracle_poisson_bracket),
                        (jet_product, oracle_jet_product)):
            got = op(F, G).tail
            exact = ref(F, G, mul=direct_product).tail
            assert got >= exact, (case, op.__name__)
            if exact > 0:
                ratios.append(got / exact)
        pairs = [(f.cutoff + g.cutoff, weighted_degree(tuple(
            tuple(x + y for x, y in zip(u, v)) for u, v in zip(a, b))))
            for a, f in F.terms.items() for b, g in G.terms.items()]
        seen["over-degree"] += any(g > kw["max_degree"] for _, g in pairs)
        seen["cap-binding"] += kw["cutoff_cap"] is not None and any(
            c > kw["cutoff_cap"] for c, _ in pairs)
    assert min(seen.values()) >= 40, seen
    assert min(ratios) < 1.01


def test_exactly_real_inputs_give_exactly_real_brackets(monkeypatch):
    rows = []
    inverse = jets._kept_inverse
    monkeypatch.setattr(jets, "_kept_inverse",
                        lambda x, M: rows.append(len(x)) or inverse(x, M))
    for d, n, cut, cap in GRID_CASES:
        rng = np.random.default_rng(300 * d + n)
        kw = dict(max_degree=4, cutoff_cap=cap, s_ref=0.3, r_ref=0.5)
        H = mixed_jet(rng, d, n, 8, cut, degree=4, **kw)
        F = 1e-5 * mixed_jet(rng, d, n, 6, cut - 1, degree=2, **kw)
        H, F = (0.5 * (J + conjugate_jet(J)) for J in (H, F))
        assert jets._mirrors(H) is not None and jets._mirrors(F) is not None
        rows.clear()
        got = [poisson_bracket(H, F), poisson_bracket(F, H),
               jet_product(H, F), lie_transform(H, F, order=2).jet]
        mirrored = sum(rows)
        with monkeypatch.context() as m:
            m.setattr(jets, "_mirrors", lambda J: None)
            rows.clear()
            ref = [poisson_bracket(H, F), poisson_bracket(F, H),
                   jet_product(H, F), lie_transform(H, F, order=2).jet]
        assert mirrored < sum(rows)
        for g, f in zip(got, ref):
            assert check_reality(g, tol=0.0) == (True, 0.0)
            assert check_reality(f)[0]
            assert_jets_agree(g, f)
        # real to the last bit only: the full kernel runs
        sig = next(s for s in H.terms if s[1] != s[2])
        bumped = dict(H.terms)
        bumped[sig] = H.terms[sig] * (1 + 2 ** -52)
        assert jets._mirrors(replace(H, terms=bumped)) is None


@pytest.mark.parametrize("d, n, cut, cap", GRID_CASES)
def test_kept_modes_exact_on_the_minimal_grid(monkeypatch, d, n, cut, cap):
    # with next_fast_len the identity, the grid is the least alias-free
    # one, L = max(c + m + 1) over kept keys (or 2N + 1), and the kept
    # modes match direct convolution; one point fewer folds a dropped mode
    # onto a kept one
    rng = np.random.default_rng(400 * d + n)
    kw = dict(max_degree=4, cutoff_cap=cap, s_ref=0.3, r_ref=0.5)
    H = mixed_jet(rng, d, n, 6, cut, degree=4, **kw)
    G = mixed_jet(rng, d, n, 5, cut - 1, degree=2, **kw)
    ref = oracle_poisson_bracket(H, G, mul=direct_product)
    lengths = []
    monkeypatch.setattr(jets, "next_fast_len",
                        lambda m: lengths.append(m) or m)
    assert_jets_agree(poisson_bracket(H, G), ref, upper=oracle_poisson_bracket(
        H, G, shells=True, mul=direct_product))
    # the old grid took 2 c + 1 points, c the largest box
    c = max(f.cutoff for f in H.terms.values()) \
        + max(g.cutoff for g in G.terms.values())
    assert len(lengths) == 1 and lengths[0] <= 2 * c + 1
    assert cap is None or cap >= c or lengths[0] < 2 * c + 1
    monkeypatch.setattr(jets, "next_fast_len", lambda m: m - 1)
    folded = poisson_bracket(H, G)
    assert max(np.abs(f.pad(ref.terms[s].cutoff).data
                      - ref.terms[s].data).max()
               for s, f in folded.terms.items()) > 1e-3 * ref.max_abs_coeff()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_term_bound_matches_partial_x_sum(d):
    rng = np.random.default_rng(30 + d)
    for sig in signatures(d, 1, 4):
        cut = int(rng.integers(0, 6 - d))
        box = (1, 1) + (2 * cut + 1,) * d
        f = FourierSeries(d, (1, 1), cut, rng.standard_normal(box)
                          + 1j * rng.standard_normal(box))
        for s in (0.0, 0.3, 1.7):
            ref = oracle_term_vf_bound(sig, f, s, 0.4)
            assert _term_vf_bound(sig, f, s, 0.4) == pytest.approx(
                ref, rel=1e-13, abs=0.0)


def deg_jet(rng, d, n, degree, count, cut, **kw):
    """`count` random terms of weighted degree exactly `degree` at one
    cutoff."""
    sigs = [s for s in signatures(d, n, degree) if weighted_degree(s) == degree]
    box = (1, 1) + (2 * cut + 1,) * d
    return HamiltonianJet(d, n, {
        sig: FourierSeries(d, (1, 1), cut, rng.standard_normal(box)
                           + 1j * rng.standard_normal(box))
        for sig in sigs[:count]}, s_ref=0.3, r_ref=0.5, **kw)


def test_over_degree_pairs_never_touch_the_grid(monkeypatch):
    # every pair is over degree: the tail comes from shell sums alone, and
    # no part is transformed.  Q's 58 transforms on the old 66 x 66 grid
    # took 3.9 MB
    def refuse(*args):
        raise AssertionError("grid transform of an over-degree pair")
    monkeypatch.setattr(jets, "_wrapped_transform", refuse)
    rng = np.random.default_rng(41)
    P, Q = (deg_jet(rng, 2, 2, 4, count, 16, max_degree=4)
            for count in (4, 58))
    tracemalloc.start()
    try:
        out = jet_product(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.terms and out.tail > 0
    assert out.tail >= oracle_jet_product(P, Q).tail
    assert peak <= 2 ** 20


def test_grid_product_inverts_one_key_at_a_time(monkeypatch):
    # 12 x 12 kept pairs at cutoffs 24 + 24 under cap 2 sum into 58 keys
    # on the 54 x 54 grid (47 kB each): held all at once, the key sums
    # would take 2.7 MB beyond the 24 transforms; each key is inverted
    # alone, at its own cutoff, before the next is summed
    rows = []
    inverse = jets._kept_inverse
    monkeypatch.setattr(jets, "_kept_inverse",
                        lambda x, M: rows.append(len(x)) or inverse(x, M))
    rng = np.random.default_rng(42)
    P, Q = (deg_jet(rng, 2, 2, 2, 12, 24, cutoff_cap=2) for _ in range(2))
    grid = 54 ** 2 * 16
    tracemalloc.start()
    try:
        out = jet_product(P, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [1] * 58 and len(out.terms) == 58
    assert peak <= 24 * grid + 0.5 * 2 ** 20


def mirror_classes_in_use(F, G):
    """The most mirror classes {part, its mirror} of grid parts whose first
    and last use span one product, in `_grid_kernel`'s order of a real
    bracket: kept keys with b <= c, in order of their first product."""
    f, g = jets._Side(F), jets._Side(G)
    keys = {}
    for i, p, j, q, sig, _ in jets._bracket_channels(f.sigs, f.moves,
                                                      g.sigs, g.moves):
        if weighted_degree(sig) <= F.max_degree and sig[1] <= sig[2]:
            box = f.series[i].cutoff + g.series[j].cutoff
            keys.setdefault((sig, box), []).append(
                (("F", min(i, f.mirror[i]), p), ("G", min(j, g.mirror[j]), q)))
    first, last = {}, {}
    for pos, pair in enumerate(x for prods in keys.values() for x in prods):
        for c in pair:
            first.setdefault(c, pos)
            last[c] = pos
    return max(sum(first[c] <= pos <= last[c] for c in first)
               for pos in range(pos + 1))


def test_real_bracket_stores_one_grid_per_mirror_class():
    # a mirror part is read off its partner's grid at each use and never
    # stored: the kernel's peak stays within one grid per mirror class in
    # use, plus the key's sum grid and 10 grids of transform and work
    # space, 64 grids here.  Storing each mirror's conjugate peaked at 70
    # grids, and a 2 MB slab of key sums at 82; this kernel peaks at 59
    rng = np.random.default_rng(1)
    kw = dict(max_degree=4, cutoff_cap=1, s_ref=0.3, r_ref=0.5)
    H = mixed_jet(rng, 3, 2, 30, 8, degree=4, **kw)
    F = 1e-5 * mixed_jet(rng, 3, 2, 14, 8, degree=2, **kw)
    H, F = (0.5 * (J + conjugate_jet(J)) for J in (H, F))
    assert jets._mirrors(H) is not None and jets._mirrors(F) is not None
    grid = 16 * 18 ** 3         # L = 2 * 8 + 1, rounded to 18
    poisson_bracket(H, F)       # caches of the box weights fill here
    tracemalloc.start()
    try:
        poisson_bracket(H, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (mirror_classes_in_use(H, F) + 1 + 10) * grid


def test_nan_terms_are_kept_zero_terms_dropped():
    sig_x, sig_y = (ZD, ZN, ZN), ((1, 0), ZN, ZN)
    nan = FourierSeries.constant(D, np.nan)
    P = HamiltonianJet(D, N, {sig_x: nan,
                              sig_y: FourierSeries.zero(D, cutoff=2)})
    assert list(P.terms) == [sig_x]
    assert np.isnan(P.terms[sig_x].data).all()
    for built in (P + scalar_jet(FourierSeries.cosine(D, (1, 0))),
                  replace(P, terms=P.terms), 2.0 * P):
        assert np.isnan(built.term(sig_x).data).any()
    # a term whose coefficients cancel exactly is still dropped
    f = FourierSeries.cosine(D, (1, 0))
    assert not (y_jet(0, f) - y_jet(0, f)).terms


def test_jet_sum_takes_the_larger_degree_cap_in_either_order():
    # b carries a degree-3 term past a's cap of 2: the sum is built with
    # the larger cap from the start, whichever operand comes first
    f = FourierSeries.cosine(D, (1, 0))
    a = HamiltonianJet(D, N, {(ZD, ZN, ZN): f}, max_degree=2)
    b = HamiltonianJet(D, N, {(ZD, (1, 1), (1, 0)): 2.0 * f,
                              (ZD, ZN, ZN): f}, max_degree=4)
    ab, ba = a + b, b + a
    assert ab.max_degree == ba.max_degree == 4
    assert ab.terms.keys() == ba.terms.keys()
    assert all(np.array_equal(ab.terms[s].data, ba.terms[s].data)
               for s in ab.terms)
    assert (a - b).max_degree == (b - a).max_degree == 4
    assert poisson_bracket(a, b).max_degree == 4


# ----------------------------------------------------------------------
# split
# ----------------------------------------------------------------------

def test_split_scalar_all_low():
    P = scalar_jet(FourierSeries.cosine(D, (1, 1)))
    sp = split_low_high(P)
    assert sp.high.max_abs_coeff() == 0.0
    assert len(sp.low.terms) == 1


def test_split_yy_high():
    sig = ((2, 0), ZN, ZN)
    P = HamiltonianJet(D, N, {sig: FourierSeries.constant(D, 1.0)})
    sp = split_low_high(P)
    assert sp.low.max_abs_coeff() == 0.0
    assert sig in sp.high.terms


def test_split_yz_high():
    sig = ((1, 0), (1, 0), ZN)
    P = HamiltonianJet(D, N, {sig: FourierSeries.constant(D, 1.0)})
    sp = split_low_high(P)
    assert sig in sp.high.terms
    # the plain <R^y, y> term is low
    assert ((1, 0), ZN, ZN) not in sp.high.terms


def test_split_reassembles():
    rng = np.random.default_rng(12)
    P = random_jet(rng, degree=4)
    sp = split_low_high(P)
    diff = (sp.low + sp.high) - P
    assert diff.max_abs_coeff() <= 1e-15


# ----------------------------------------------------------------------
# reality
# ----------------------------------------------------------------------

def test_reality_cosine_true():
    ok, worst = check_reality(scalar_jet(FourierSeries.cosine(D, (1, 0))))
    assert ok and worst <= 1e-15


def test_reality_z_plus_zbar():
    f = FourierSeries.constant(D, 1.0)
    P = HamiltonianJet(D, N, {(ZD, (1, 0), ZN): f, (ZD, ZN, (1, 0)): f})
    ok, _ = check_reality(P)
    assert ok
    Q = HamiltonianJet(D, N, {(ZD, (1, 0), ZN): f * 1j})
    ok, worst = check_reality(Q)
    assert not ok and worst >= 0.5


def test_reality_symmetrization_oracle():
    rng = np.random.default_rng(13)
    P = random_jet(rng, real=True)
    ok, worst = check_reality(P)
    assert ok and worst <= 1e-14


# ----------------------------------------------------------------------
# lie transform
# ----------------------------------------------------------------------

def assert_bit_identical(got, ref):
    """The same terms, in the same order, and the same tail, bit for bit."""
    assert got.tail == ref.tail and list(got.terms) == list(ref.terms)
    assert all(got.terms[sig].data.tobytes() == f.data.tobytes()
               for sig, f in ref.terms.items())


def plain_lie(H, F, order):
    """`lie_transform` as a plain chain of `poisson_bracket` and `vf_norm`
    calls, each on a new side of F, under the same budget from the second
    bracket on."""
    out = term = H
    norms = [vf_norm(H, H.s_ref, H.r_ref)]
    fact = 1.0
    for j in range(1, order + 2):
        fact *= j
        side = jets._Side(F)
        side.limit = jets._ROUNDING * norms[1] * fact if j >= 2 else 0.0
        term = poisson_bracket(term, F, side)
        norms.append(vf_norm(term, H.s_ref, H.r_ref) / fact)
        if j <= order:
            out = out + (1.0 / fact) * term
    return replace(out, tail=out.tail + norms[-1]), norms[-1], norms


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("real", [False, True])
def test_lie_series_memos_match_the_plain_bracket_chain(monkeypatch, d,
                                                        real):
    # the generator's mirror table, motion flags and shell sums are
    # computed once per series and its channel tables reused: the jet,
    # tail bound and term norms equal the plain chain's bit for bit.  The
    # series is summed in arrays of its own: every array of H and F keeps
    # its bytes and stays read-only, and a second call gives the same bytes
    rng = np.random.default_rng(500 + 10 * d + real)
    cut = (5, 3, 2)[d - 1]
    kw = dict(max_degree=4, cutoff_cap=cut + 1, s_ref=0.3, r_ref=0.5)
    H = mixed_jet(rng, d, 1, 8, cut, degree=4, tail=1e-4, **kw)
    F = 1e-5 * mixed_jet(rng, d, 1, 6, cut - 1, degree=2, **kw)
    if real:
        H, F = (0.5 * (J + conjugate_jet(J)) for J in (H, F))
    assert (jets._mirrors(F) is not None) == real
    inputs = [f.data for J in (H, F) for f in J.terms.values()]
    before = [x.tobytes() for x in inputs]
    calls = {"_mirrors": [], "_moves": [], "_shells": []}
    for name, log in calls.items():
        def counted(*args, _f=getattr(jets, name), _log=log):
            _log.append(args)
            return _f(*args)
        monkeypatch.setattr(jets, name, counted)
    got = lie_transform(H, F, order=3)
    terms = list(F.terms.values())
    mirrors = [J for J, in calls["_mirrors"] if J is F]
    moves = [f for f, in calls["_moves"] if any(f is g for g in terms)]
    shells = [(id(f), p) for f, p, *_ in calls["_shells"]
              if any(f is g for g in terms)]
    assert len(mirrors) == 1
    assert 0 < len(moves) == len({id(f) for f in moves}) <= len(terms)
    assert 0 < len(shells) == len(set(shells))
    assert [x.tobytes() for x in inputs] == before
    assert not any(x.flags.writeable for x in inputs)
    again = lie_transform(H, F, order=3)
    assert (again.tail_bound, again.term_norms) == (got.tail_bound,
                                                    got.term_norms)
    assert_bit_identical(again.jet, got.jet)
    for log in calls.values():
        log.clear()
    jet, tail, norms = plain_lie(H, F, 3)
    assert len([J for J, in calls["_mirrors"] if J is F]) == 4
    assert got.tail_bound == tail and got.term_norms == norms
    assert_bit_identical(got.jet, jet)


def test_series_sums_drop_exact_zeros_as_the_jet_chain_does():
    # a Lie series' in-place sums give `out + scale * term` bit for bit:
    # padded as `_aligned` pads, a signature whose sum is exactly zero
    # dropped, and put back at the end by a later term
    rng = np.random.default_rng(77)

    def series(cut):
        box = (1, 1) + (2 * cut + 1,) * 2
        return FourierSeries(2, (1, 1), cut, rng.standard_normal(box)
                             + 1j * rng.standard_normal(box))

    s1, s2, s3 = ((0, 0), (0,), (0,)), ((1, 0), (0,), (0,)), \
        ((0, 0), (1,), (1,))
    A = HamiltonianJet(2, 1, {s1: series(2), s2: series(3)}, tail=1e-3)
    B = HamiltonianJet(2, 1, {s1: -1.0 * A.terms[s1], s3: series(1),
                              s2: series(4)}, tail=2e-3)
    C = HamiltonianJet(2, 1, {s1: series(1), s2: series(2)}, tail=3e-3)
    ref, sums, tail = A, {sig: f.data for sig, f in A.terms.items()}, A.tail
    for term, scale in ((B, 1.0), (C, 0.5), (C, 1.0 / 6.0)):
        ref = ref + scale * term
        tail = jets._sum_into(sums, term, scale, tail)
        assert list(sums) == list(ref.terms) and tail == ref.tail
        assert all(sums[sig].tobytes() == f.data.tobytes()
                   for sig, f in ref.terms.items())
    assert list(sums) == [s2, s3, s1]
    assert not any(f.data.flags.writeable
                   for J in (A, B, C) for f in J.terms.values())


def graded_jet(rng, d, n, count, max_cutoff, degree, scale, **kw):
    """Like `mixed_jet`, with each term scaled by scale 10^-U(0, 12), so a
    series holds keys on both sides of its budget."""
    J = mixed_jet(rng, d, n, count, max_cutoff, degree=degree, **kw)
    return replace(J, terms={sig: f * (scale * 10.0 ** -rng.uniform(0, 12))
                             for sig, f in J.terms.items()})


def budget_series(rng):
    """200 cases (case, H, F, kw, real) of Lie series with keys on both
    sides of the series budget: d in 1..3, n in 1..2, every other case
    under a cutoff cap, every other pair of cases exactly real."""
    for case in range(200):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        cut = (3, 2, 1)[d - 1]
        kw = dict(max_degree=4, cutoff_cap=[None, cut + 1][case % 2],
                  s_ref=float(rng.uniform(0.1, 0.5)),
                  r_ref=float(rng.uniform(0.3, 0.8)))
        H = graded_jet(rng, d, n, 3, cut, 4, 1.0, **kw)
        F = graded_jet(rng, d, n, 2, cut, 2, 10.0 ** -rng.uniform(2, 8),
                       **kw)
        real = case % 4 >= 2
        if real:
            H, F = (0.5 * (J + conjugate_jet(J)) for J in (H, F))
        yield case, H, F, kw, real


def test_lie_series_budget_against_the_full_series_200_cases(monkeypatch):
    # the series budget only moves keys into the tail: against the full
    # series (budget constant 0) each coefficient moves by at most the
    # bounds it booked, skipping never lowers a bracket's vf norm on the
    # same input, real series stay exactly real, and a bracket outside a
    # series, after it or after the growth error, has no budget
    rng = np.random.default_rng(23)
    seen = {"skipped": 0, "real-skipped": 0, "no-cap": 0}
    for case, H, F, kw, real in budget_series(rng):
        got = lie_transform(H, F, order=3)
        bracket = poisson_bracket(H, F)
        with monkeypatch.context() as m:
            m.setattr(jets, "_ROUNDING", 0.0)
            ref = lie_transform(H, F, order=3)
            full = poisson_bracket(H, F)
        assert ref.skipped_keys == 0 and ref.skipped_bound == 0.0
        assert_bit_identical(bracket, full)
        seen["skipped"] += got.skipped_keys > 0
        seen["real-skipped"] += real and got.skipped_keys > 0
        s, r = H.s_ref, H.r_ref
        for sig in set(got.jet.terms) | set(ref.jet.terms):
            diff = got.jet.term(sig) - ref.jet.term(sig)
            assert _term_vf_bound(sig, diff, s, r) <= got.skipped_bound, \
                (case, sig)
        if real:
            assert jets._mirrors(got.jet) is not None
        if kw["cutoff_cap"] is not None:
            # a binding cap books the modes a kept key drops by another
            # bound than a skipped key's, so the norms are not ordered
            continue
        seen["no-cap"] += 1
        # the budgeted chain, each bracket against the full bracket of the
        # same input
        term, limit = H, 0.0
        for j in range(1, 5):
            side = jets._Side(F)
            side.limit = limit
            nxt = poisson_bracket(term, F, side)
            assert vf_norm(nxt, s, r) >= vf_norm(
                poisson_bracket(term, F), s, r) * (1 - 2.0 ** -46), (case, j)
            if real:
                assert jets._mirrors(nxt) is not None, (case, j)
            term, limit = nxt, jets._ROUNDING * got.term_norms[1] \
                * math.factorial(j + 1)
    assert min(seen.values()) >= 50, seen
    H, F = random_jet(rng), 50.0 * random_jet(rng)
    with pytest.raises(LieSeriesDivergence, match="grow"):
        lie_transform(H, F, order=3)
    with monkeypatch.context() as m:
        m.setattr(jets, "_ROUNDING", 0.0)
        full = poisson_bracket(H, F)
    assert_bit_identical(poisson_bracket(H, F), full)


def test_whole_bounds_match_the_totals_oracle(tmp_path, monkeypatch):
    # the budget's whole-key bounds come from the shell sums at m = -1,
    # where every shell pair counts: in exact arithmetic they equal the
    # totals algebra's sigma_f sigma_g, so on the 200 budget series and
    # kam-run seeds 1-3 they agree to rounding and skip the same keys
    calls = []
    whole = jets._whole_bounds

    def checked(F, G, keys, cand, s, r):
        got = whole(F, G, keys, cand, s, r)
        calls.append((got, totals_oracle.whole_bounds(F, G, keys, cand, s, r),
                      G.limit))
        return got
    monkeypatch.setattr(jets, "_whole_bounds", checked)
    rng = np.random.default_rng(23)
    for _, H, F, _, _ in budget_series(rng):
        lie_transform(H, F, order=3)
    series_calls = len(calls)
    for seed in (1, 2, 3):
        cfg = load_config({**WORKLOAD_CONFIGS["kam-run"], "seed": seed})
        assert cli.dispatch(cfg, str(tmp_path / str(seed))) == 0
    assert 0 < series_calls < len(calls)
    skips = 0
    for got, ref, limit in calls:
        assert len(got) == len(ref)
        assert all(abs(a - b) <= 1e-13 * b for a, b in zip(got, ref))
        assert [a <= limit for a in got] == [b <= limit for b in ref]
        skips += sum(a <= limit for a in got)
    assert skips > 0


def test_kam_run_kernel_inverts_one_key_per_call(tmp_path, monkeypatch):
    # kam-run's brackets invert each key alone, at its own cutoff, so the
    # run peaks at 9.6 MiB traced; the 2 MB slab of key sums inverted in
    # batches took it to 10.4 MiB, inside a level-3 Lie bracket
    rows = []
    inverse = jets._kept_inverse
    monkeypatch.setattr(jets, "_kept_inverse",
                        lambda x, M: rows.append(len(x)) or inverse(x, M))
    cfg = load_config(WORKLOAD_CONFIGS["kam-run"])
    tracemalloc.start()
    try:
        assert cli.dispatch(cfg, str(tmp_path / "out")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows and set(rows) == {1}
    assert peak < 10.0 * 2 ** 20


def test_channel_tables_are_cached_immutable_and_fresh(tmp_path,
                                                       monkeypatch):
    # a bracket's channel table is a function of the two sides' signatures
    # and motion flags: cached, shared across kam-run's levels, hashable,
    # and equal to a fresh build
    tables = []
    cached = jets._bracket_channels

    def logged(*args):
        tables.append((args, cached(*args)))
        return tables[-1][1]
    monkeypatch.setattr(jets, "_bracket_channels", logged)
    cached.cache_clear()
    cfg = load_config(WORKLOAD_CONFIGS["kam-run"])
    assert cli.dispatch(cfg, str(tmp_path / "out")) == 0
    assert cached.cache_info().hits > 0
    for args, table in tables:
        hash(table)     # raises TypeError on a list anywhere inside
        assert cached(*args) is table
        assert table == cached.__wrapped__(*args)
        assert isinstance(table, tuple) and len(table) > 0


def test_lie_identity():
    rng = np.random.default_rng(14)
    H = random_jet(rng)
    res = lie_transform(H, HamiltonianJet.zero(D, N))
    assert (res.jet - H).max_abs_coeff() <= 1e-15
    assert res.tail_bound == 0.0


def test_lie_two_term_hand_expansion():
    # frozen: H = <omega, y>, F = F^x(x): {H, F} = -d_omega F^x, next 0
    H = y_jet(0, FourierSeries.constant(D, GOLD[0])) \
        + y_jet(1, FourierSeries.constant(D, GOLD[1]))
    Fx = sine(D, (1, 0), amplitude=0.1)
    F = scalar_jet(Fx)
    res = lie_transform(H, F, order=3)
    from toruskam.fourier import dir_derivative
    expected = -0.1 * GOLD[0]  # -d_omega sin -> coefficient of cos(x1)
    got = component_x(res.jet)
    ref = dir_derivative(Fx, GOLD) * (-1.0)
    assert np.allclose(got.pad(ref.cutoff).data, ref.data, atol=1e-14)
    assert res.tail_bound == 0.0
    del expected


def test_lie_preserves_bracket_of_coordinates():
    # transformed (z1, zbar1) keep {., .} = i up to O(eps^2)
    eps = 1e-4
    rng = np.random.default_rng(15)
    F = eps * random_jet(rng, real=True)
    z1 = HamiltonianJet(D, N, {(ZD, (1, 0), ZN): FourierSeries.constant(D, 1)},
                        max_degree=6)
    zb1 = HamiltonianJet(D, N, {(ZD, ZN, (1, 0)): FourierSeries.constant(D, 1)},
                         max_degree=6)
    Z = lie_transform(z1, F, order=2).jet
    Zb = lie_transform(zb1, F, order=2).jet
    br = poisson_bracket(Z, Zb)
    const = component_x(br).coeff((0, 0))[0, 0]
    assert const == pytest.approx(1j, abs=50 * eps ** 2)


def test_lie_preserves_reality():
    rng = np.random.default_rng(16)
    H = random_jet(rng, real=True)
    F = 1e-2 * random_jet(rng, real=True)
    res = lie_transform(H, F, order=2)
    ok, worst = check_reality(res.jet)
    assert ok, worst


def test_lie_divergence_detected():
    rng = np.random.default_rng(17)
    H = random_jet(rng)
    F = 50.0 * random_jet(rng)
    with pytest.raises(LieSeriesDivergence):
        lie_transform(H, F, order=3)


# ----------------------------------------------------------------------
# normal form and component round trips
# ----------------------------------------------------------------------

def test_normal_form_jet_round_trip():
    rng = np.random.default_rng(18)
    box = (N, N) + (3,) * D
    raw = rng.standard_normal(box) + 1j * rng.standard_normal(box)
    B = FourierSeries(D, (N, N), 1, raw)
    B = 0.5 * (B + B.conj_function())        # real for real x
    B = 0.5 * (B + B.transpose())            # symmetric
    nf = NormalForm(omega=GOLD, Omega=np.array([1.0, 2.0]), B=B)
    assert nf.symmetry_error() <= 1e-14
    jet = nf.to_jet()
    M = matrix_zzbar(jet)
    diag = FourierSeries.constant(D, np.diag(nf.Omega)).pad(1)
    assert np.allclose(M.data, (B + diag).data, atol=1e-14)
    cy = component_y(jet)
    assert np.allclose(cy.data[:, 0, cy.cutoff, cy.cutoff], GOLD, atol=1e-15)


def test_quadratic_matrix_round_trip():
    rng = np.random.default_rng(19)
    box = (N, N) + (3,) * D
    M = FourierSeries(D, (N, N), 1,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    M = 0.5 * (M + M.transpose())
    jet = jet_from_parts(D, N, Fzz=M)
    back = matrix_zz(jet)
    assert np.allclose(back.data, M.data, atol=1e-14)


def test_component_z_round_trip():
    rng = np.random.default_rng(20)
    box = (N, 1) + (3,) * D
    v = FourierSeries(D, (N, 1), 1,
                      rng.standard_normal(box) + 1j * rng.standard_normal(box))
    jet = jet_from_parts(D, N, Fz=v)
    assert np.allclose(component_z(jet).data, v.data, atol=1e-15)

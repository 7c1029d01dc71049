import math
import tracemalloc

import numpy as np
import pytest

from toruskam.fourier import FourierSeries, mode_grid
from toruskam.stability import (CHUNK, LinearTrajectory, _orbit_generator,
                                _phase_tables, integrate_linearized,
                                l2_drift, linearized_chunks,
                                lyapunov_estimate, sample_stream,
                                symmetry_defect, trajectory_csv,
                                trajectory_csv_parts)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
OMEGA = np.array([1.0, PHI])


def matrix_series(entries, cutoff=1):
    """Assemble an (n, n) series from scalar series entries."""
    n = max(max(i, j) for i, j in entries) + 1
    d = next(iter(entries.values())).d
    coeffs = {}
    for (i, j), f in entries.items():
        c = f.cutoff
        flat = f.data.reshape((2 * c + 1,) * d)
        for idx in np.ndindex(*flat.shape):
            v = flat[idx]
            if v != 0:
                k = tuple(int(a) - c for a in idx)
                coeffs.setdefault(k, np.zeros((n, n), complex))[i, j] += v
    return FourierSeries.from_coeffs(d, coeffs, shape=(n, n), cutoff=cutoff)


def symmetric_B(amp=0.5):
    c = FourierSeries.cosine(2, (1, 0), amp)
    s = FourierSeries.cosine(2, (0, 1), 0.7 * amp)
    off = FourierSeries.cosine(2, (1, 1), 0.4 * amp)
    return matrix_series({(0, 0): c, (1, 1): s, (0, 1): off, (1, 0): off})


def diagonal_part(B):
    """B with every off-diagonal coefficient set to zero."""
    n = B.shape[0]
    mask = np.eye(n).reshape((n, n) + (1,) * B.d)
    return FourierSeries(B.d, B.shape, B.cutoff, B.data * mask)


# ----------------------------------------------------------------------
# closed-form oracle, conservation
# ----------------------------------------------------------------------

def test_free_flow_matches_closed_form():
    Om = np.array([1.17, 2.31])
    z0 = np.array([1.0, 0.5 - 0.25j])
    traj = integrate_linearized(OMEGA, Om, None, z0, T=10.0, dt=1e-3)
    exact = z0[None, :] * np.exp(1j * traj.times[:, None] * Om[None, :])
    assert np.abs(traj.z - exact).max() <= 1e-8
    assert l2_drift(traj) <= 1e-10
    assert abs(lyapunov_estimate(traj)) <= 1e-10


def test_constant_symmetric_coupling_conserves():
    B = matrix_series({(0, 0): FourierSeries.constant(2, 0.3),
                       (0, 1): FourierSeries.constant(2, 0.2),
                       (1, 0): FourierSeries.constant(2, 0.2),
                       (1, 1): FourierSeries.constant(2, -0.1)}, cutoff=0)
    traj = integrate_linearized(OMEGA, np.array([1.0, 1.4]), B,
                                np.array([1.0, 1.0j]), T=10.0, dt=1e-3)
    assert l2_drift(traj) <= 1e-10
    assert symmetry_defect(B) == 0.0


def test_dt_halving_fourth_order():
    Om = np.array([2.0])
    z0 = np.array([1.0 + 0.0j])

    def err(dt):
        traj = integrate_linearized(OMEGA, Om, None, z0, T=10.0, dt=dt)
        exact = z0[None, :] * np.exp(1j * traj.times[:, None] * Om[None, :])
        return np.abs(traj.z - exact).max()

    ratio = err(1e-2) / err(5e-3)
    assert 8.0 <= ratio <= 32.0


def test_drift_order_study_symmetric_coupling():
    B = symmetric_B()
    Om = np.array([1.0, 1.4])
    z0 = np.array([1.0, 0.5j])
    dts = [8e-3, 4e-3, 2e-3]
    drifts = [l2_drift(integrate_linearized(OMEGA, Om, B, z0, T=5.0, dt=dt))
              for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
    # at least fourth order; in practice the norm defect superconverges
    # (|R(i y)|^2 = 1 - y^6/36 + ... gives a fifth-order drift)
    assert 3.5 <= slope <= 5.5


# ----------------------------------------------------------------------
# sentinels
# ----------------------------------------------------------------------

def test_nonsymmetric_sentinel_detected():
    bad = matrix_series({(0, 1): FourierSeries.cosine(2, (1, 0), 0.02)})
    assert symmetry_defect(bad) > 0.01
    # Omega_2 - Omega_1 = <k, omega> makes the asymmetric coupling secular
    Om = np.array([1.0, 2.0])
    z0 = np.array([1.0, 1.0 + 0.0j])
    half = integrate_linearized(OMEGA, Om, bad, z0, T=10.0, dt=1e-3)
    full = integrate_linearized(OMEGA, Om, bad, z0, T=20.0, dt=1e-3)
    assert l2_drift(half) > 1e-4
    # roughly linear growth of the conservation defect
    assert 1.5 <= l2_drift(full) / l2_drift(half) <= 3.0


def test_gain_sentinel_lyapunov():
    # generator i Omega + 0.01 I written as a (complex) constant coupling
    gain = matrix_series({(0, 0): FourierSeries.constant(2, -0.01j)},
                         cutoff=0)
    traj = integrate_linearized(OMEGA, np.array([1.3]), gain,
                                np.array([1.0 + 0.0j]), T=10.0, dt=1e-3)
    assert lyapunov_estimate(traj) == pytest.approx(0.01, rel=1e-3)
    assert symmetry_defect(gain) == pytest.approx(0.01)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def test_lyapunov_halves_and_errors():
    traj = integrate_linearized(OMEGA, np.array([1.17]), None,
                                np.array([1.0 + 0.0j]), T=4.0, dt=1e-2)
    full, first, second = lyapunov_estimate(traj, return_halves=True)
    assert abs(full) <= 1e-10 and abs(first) <= 1e-9 and abs(second) <= 1e-9
    with pytest.raises(ValueError):
        lyapunov_estimate(_zero_start(traj))
    with pytest.raises(ValueError):
        integrate_linearized(OMEGA, np.array([1.0]), None,
                             np.array([1.0 + 0.0j]), T=1.0, dt=0.0)
    with pytest.raises(ValueError, match="B has d = 2"):
        integrate_linearized([1.0, PHI, 2.0], np.array([1.0, 1.4]),
                             symmetric_B(), np.array([1.0, 0.5j]), T=1.0,
                             dt=1e-2)


@pytest.mark.parametrize("B", [None, symmetric_B(), diagonal_part(
    symmetric_B())], ids=["none", "coupled", "diagonal"])
def test_shape_mismatches_name_both_sizes(B):
    # an Omega of length 1 is not broadcast to both components
    for Omega, z0, match in (
            ([1.0], [1.0, 0.5j], r"Omega has shape \(1,\), z0 has shape "
                                 r"\(2,\)"),
            ([1.0, 1.4, 2.0], [1.0, 0.5j], r"Omega has shape \(3,\)")):
        with pytest.raises(ValueError, match=match):
            integrate_linearized(OMEGA, Omega, B, z0, T=1.0, dt=1e-2)
    if B is not None:
        with pytest.raises(ValueError, match=r"B has shape \(2, 2\), z0 "
                                             r"has shape \(1,\)"):
            integrate_linearized(OMEGA, [1.0], B, [1.0], T=1.0, dt=1e-2)


def _zero_start(traj):
    import dataclasses
    z = traj.z.copy()
    z[0] = 0.0
    return dataclasses.replace(traj, z=z)


def test_trajectory_csv_shape_and_determinism():
    traj = integrate_linearized(OMEGA, np.array([1.17]), None,
                                np.array([0.5 + 0.5j]), T=0.1, dt=1e-2)
    csv = trajectory_csv(traj)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,re_z0,im_z0,norm_sq"
    assert len(lines) == len(traj.times) + 1
    traj2 = integrate_linearized(OMEGA, np.array([1.17]), None,
                                 np.array([0.5 + 0.5j]), T=0.1, dt=1e-2)
    assert trajectory_csv(traj2) == csv
    assert len(trajectory_csv(traj, stride=5).strip().split("\n")) \
        == 1 + math.ceil(len(traj.times) / 5)
    # the rows are the values formatted one row at a time, one f-string
    # per value, at n = 1, 2, 3 (a zero component included) and strides
    # 1, 3 and 10
    for z0 in ([0.5 + 0.5j], [0.5 + 0.5j, -1.0j], [0.3 - 2j, 0.0, 1e-5]):
        n = len(z0)
        traj = integrate_linearized(OMEGA, np.linspace(1.17, 1.43, n), None,
                                    np.array(z0), T=1.0, dt=1e-2)
        for stride in (1, 3, 10):
            rows = [",".join(["t"] + [f"re_z{j}" for j in range(n)]
                             + [f"im_z{j}" for j in range(n)]
                             + ["norm_sq"])]
            for t, z in zip(traj.times[::stride], traj.z[::stride]):
                vals = [t, *z.real, *z.imag, float((np.abs(z) ** 2).sum())]
                rows.append(",".join(f"{v:.17e}" for v in vals))
            assert trajectory_csv(traj, stride=stride) \
                == "\n".join(rows) + "\n"


# ----------------------------------------------------------------------
# batched integrator against the per-step loop it replaced
# ----------------------------------------------------------------------

def loop_rk4(omega, Omega, B, z0, T, dt, x0=None):
    """Reference: one classical RK4 step at a time, with B summed mode by
    mode (one exp per mode) at t, t + dt/2 and t + dt.  Returns z only."""
    omega = np.asarray(omega, dtype=float)
    z = np.asarray(z0, dtype=complex).copy()
    n = z.size
    x0 = np.zeros(omega.size) if x0 is None else np.asarray(x0, dtype=float)
    if B is None:
        modes, flat = np.zeros((1, omega.size)), np.zeros((n * n, 1))
    else:
        modes = mode_grid(B.d, B.cutoff).reshape(-1, B.d)
        flat = B.data.reshape(n * n, -1)

    def gen(t):
        A = 1j * (flat @ np.exp(1j * (modes @ (omega * t + x0)))
                  ).reshape(n, n)
        A[np.diag_indices(n)] += 1j * np.asarray(Omega, dtype=float)
        return A

    nsteps = int(round(T / dt))
    times = dt * np.arange(nsteps + 1)
    traj = np.empty((nsteps + 1, n), dtype=complex)
    traj[0] = z
    for i in range(nsteps):
        t = times[i]
        A1 = gen(t)
        A2 = gen(t + 0.5 * dt)
        A4 = gen(t + dt)
        k1 = A1 @ traj[i]
        k2 = A2 @ (traj[i] + 0.5 * dt * k1)
        k3 = A2 @ (traj[i] + 0.5 * dt * k2)
        k4 = A4 @ (traj[i] + dt * k3)
        traj[i + 1] = traj[i] + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return traj


def random_symmetric(d, n, cutoff, amp, seed):
    """Real symmetric matrix-valued series with random modes."""
    rng = np.random.default_rng(seed)
    box = (2 * cutoff + 1,) * d
    c = rng.standard_normal((n, n) + box) \
        + 1j * rng.standard_normal((n, n) + box)
    c = c + np.swapaxes(c, 0, 1)
    c = c + np.conj(np.flip(c, axis=tuple(range(2, 2 + d))))
    return FourierSeries(d, (n, n), cutoff, amp * c)


# stability mode's B: one cosine on each diagonal entry
STABILITY_COSINE = FourierSeries.cosine(2, (1, 0), 0.01)

PARITY_CASES = {
    # name: (omega, Omega, B, z0, x0)
    "free": (OMEGA, [1.17, 2.31], None, [1.0, 0.5 - 0.25j], None),
    "constant": (OMEGA, [1.0, 1.4], matrix_series(
        {(0, 0): FourierSeries.constant(2, 0.3),
         (0, 1): FourierSeries.constant(2, 0.2),
         (1, 0): FourierSeries.constant(2, 0.2),
         (1, 1): FourierSeries.constant(2, -0.1)}, cutoff=0),
        [1.0, 1.0j], None),
    "symmetric": (OMEGA, [1.0, 1.4], symmetric_B(), [1.0, 0.5j],
                  [0.7, -2.1]),
    "nonsymmetric": (OMEGA, [1.0, 2.0], matrix_series(
        {(0, 1): FourierSeries.cosine(2, (1, 0), 0.02)}),
        [1.0, 1.0], None),
    "gain": (OMEGA, [1.3], matrix_series(
        {(0, 0): FourierSeries.constant(2, -0.01j)}, cutoff=0),
        [1.0], None),
    "d1": ([PHI], [0.9, 1.6], random_symmetric(1, 2, 3, 0.05, 1),
           [1.0, -0.5j], [0.4]),
    "d3": ([1.0, PHI, math.sqrt(2.0)], [0.9, 1.6],
           random_symmetric(3, 2, 2, 0.02, 2), [0.3j, 1.0],
           [0.1, 2.0, 4.0]),
    "stability-mode": (OMEGA, [1.17, 1.43], matrix_series(
        {(0, 0): STABILITY_COSINE, (1, 1): STABILITY_COSINE}),
        [0.617 + 0.787j, 0.948 - 0.317j], [3.216, 5.972]),
    "d3-diagonal": ([1.0, PHI, math.sqrt(2.0)], [0.9, 1.6],
                    diagonal_part(random_symmetric(3, 2, 2, 0.02, 5)),
                    [0.3j, 1.0], [0.1, 2.0, 4.0]),
    # one off-diagonal coefficient, however small, couples the components
    "tiny-coupling": (OMEGA, [1.0, 1.4], matrix_series(
        {(0, 0): STABILITY_COSINE, (1, 1): FourierSeries.constant(2, 0.2),
         (0, 1): FourierSeries.from_coeffs(2, {(1, 0): 1e-12})}),
        [1.0, 0.5j], [0.7, -2.1]),
}


def _assert_parity(case, nsteps, dt=2e-3):
    omega, Omega, B, z0, x0 = case
    T = nsteps * dt
    traj = integrate_linearized(omega, Omega, B, z0, T=T, dt=dt, x0=x0)
    ref = loop_rk4(omega, Omega, B, z0, T=T, dt=dt, x0=x0)
    assert traj.z.shape == ref.shape == (nsteps + 1, len(z0))
    assert np.array_equal(traj.times, dt * np.arange(nsteps + 1))
    scale = np.abs(ref).max()
    assert np.abs(traj.z - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_batched_matches_loop_across_couplings(name):
    _assert_parity(PARITY_CASES[name], 2 * CHUNK + 300)


@pytest.mark.parametrize("nsteps", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1,
                                    3 * CHUNK + 17])
def test_batched_matches_loop_across_step_counts(nsteps):
    _assert_parity(PARITY_CASES["symmetric"], nsteps)


@pytest.mark.parametrize("d,cutoff", [(d, c) for d in (1, 2, 3)
                                      for c in (0, 1, 5)] + [(2, 32)])
def test_phase_tables_match_evaluate(d, cutoff):
    # the first chunk, an interior one at t0 ~ 1e3 and a last partial one
    omega = np.array([1.0, PHI, math.sqrt(2.0)][-d:])
    x0 = np.linspace(0.4, 4.0, d)
    B = random_symmetric(d, 2, cutoff, 0.5, 4)
    dt, nsteps = 1e-3, 1000 * CHUNK + 300
    tables = _phase_tables(omega, cutoff, dt, CHUNK)
    mags = np.abs(B.data).max(axis=(0, 1)).ravel()
    k1 = np.abs(mode_grid(d, cutoff).reshape(-1, d)).sum(axis=1)
    for start in (0, 977 * CHUNK, 1000 * CHUNK):
        count = min(CHUNK, nsteps - start)
        vals = _orbit_generator(1j * B.data, tables, omega, x0, start * dt,
                                count)
        t = 0.5 * dt * np.arange(2 * start, 2 * (start + count) + 1)
        x = t[:, None] * omega + x0
        ref = 1j * B.evaluate(x)
        assert vals.shape == ref.shape == (2 * count + 1, 2, 2)
        # both sides round the phases k.x before summing, so beyond 1e-13
        # they may differ by the sum's condition number in |x|
        cond = np.finfo(float).eps \
            * (mags * (1.0 + k1 * np.abs(x).max())).sum()
        assert np.abs(vals - ref).max() \
            <= 1e-13 * np.abs(B.data).max() + 4.0 * cond


def test_overflow_stops_at_first_non_finite_chunk():
    B = matrix_series({(0, 0): FourierSeries.cosine(2, (1, 0), 1e300)})
    z0 = np.array([1.0 + 0.0j])
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=r"chunk from t = 0$"):
            integrate_linearized(OMEGA, [1.3], B, z0, T=100.0, dt=1e-3)
    # |z| = e^{400 t} passes the largest double, about e^{709.8}, at
    # t = 1.77, in the chunk from t = CHUNK dt
    gain = matrix_series({(0, 0): FourierSeries.constant(2, -400j)},
                         cutoff=0)
    with pytest.raises(ValueError, match=f"chunk from t = {CHUNK * 1e-3:g}$"):
        integrate_linearized(OMEGA, [1.3], gain, z0, T=10.0, dt=1e-3)


def test_batched_integration_memory_is_chunked():
    # acceptance-test size: d = 2, cutoff 32 (4225 modes); 20000 steps
    B = random_symmetric(2, 1, 32, 1e-4, 3)
    tracemalloc.start()
    try:
        traj = integrate_linearized(OMEGA, [1.3], B, [1.0], T=20.0,
                                    dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = traj.z.nbytes + traj.times.nbytes
    assert peak - own <= 16 * 2 ** 20


# ----------------------------------------------------------------------
# a sampled stream against the full trajectory it replaces
# ----------------------------------------------------------------------

STREAM_CASES = {
    # name: (Omega, B, z0, x0)
    "n1": ([1.17], matrix_series({(0, 0): STABILITY_COSINE}),
           [0.6 + 0.8j], [0.3, 1.9]),
    "n2-free": ([1.17, 1.43], None, [1.0, 0.5 - 0.25j], None),
    "n2-diagonal": PARITY_CASES["stability-mode"][1:],
    "n2-coupled": ([1.0, 1.4], symmetric_B(), [1.0, 0.5j], [0.7, -2.1]),
    "n3-diagonal": ([0.9, 1.6, 2.3], diagonal_part(
        random_symmetric(2, 3, 2, 0.05, 6)), [0.3j, 1.0, -0.2], [1.0, 4.0]),
    "n3-coupled": ([0.9, 1.6, 2.3], random_symmetric(2, 3, 2, 0.05, 7),
                   [0.3j, 1.0, -0.2], [1.0, 4.0]),
}


@pytest.mark.parametrize("nsteps", [300, 301, CHUNK, CHUNK + 1, 2 * CHUNK,
                                    2 * CHUNK + 1])
@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_sampled_stream_equals_full_trajectory(name, nsteps):
    # what a stability run keeps of each phase's stream: its drift, the
    # three rows of the Lyapunov estimate and the stride rows of the CSV,
    # equal to l2_drift, lyapunov_estimate and trajectory_csv on the full
    # trajectory, at two phases
    Omega, B, z0, x0 = STREAM_CASES[name]
    dt = 2e-3
    T = nsteps * dt
    ends = np.array([0, (nsteps + 1) // 2, nsteps])
    strides = (1, 3, 10)
    everies = [np.arange(0, nsteps + 1, k) for k in strides]
    for phase in ([0.0, 0.0] if x0 is None else x0, [2.5, 0.1]):
        traj = integrate_linearized(OMEGA, Omega, B, z0, T=T, dt=dt,
                                    x0=phase)
        drift, kept = sample_stream(
            linearized_chunks(OMEGA, Omega, B, z0, T=T, dt=dt, x0=phase),
            z0, [ends, *everies])
        assert drift == l2_drift(traj)
        assert lyapunov_estimate(LinearTrajectory(dt * ends, kept[0]),
                                 return_halves=True) \
            == lyapunov_estimate(traj, return_halves=True)
        for stride, every, z in zip(strides, everies, kept[1:]):
            text = "".join(trajectory_csv_parts(
                LinearTrajectory(dt * every, z)))
            assert text == trajectory_csv(traj, stride=stride)


def test_linearized_chunks_checks_before_the_first_chunk():
    # a bad argument is refused when the stream is made, not when read
    with pytest.raises(ValueError, match="T and dt must be positive"):
        linearized_chunks(OMEGA, [1.0], None, [1.0], T=-1.0, dt=1e-2)
    with pytest.raises(ValueError, match="Omega has shape"):
        linearized_chunks(OMEGA, [1.0, 2.0], None, [1.0], T=1.0, dt=1e-2)

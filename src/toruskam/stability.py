"""Linear stability checks around a quasi-periodic orbit.

Integrates the variational equation z' = i (Omega + B(omega t + x0)) z with
a fixed-step classical Runge-Kutta scheme (fixed step for determinism and
clean order-of-convergence studies), then reads off the two certificates of
elliptic behaviour: the l2 norm of z is conserved and the top Lyapunov
exponent vanishes.  A non-symmetric or non-real B breaks conservation, which
is exactly how planted sentinels are detected.

The steps are taken in chunks.  Along the orbit every chunk sees the same
half-step offsets s dt / 2, so B at a chunk's half-step times comes from
per-axis phase tables e^{i k omega_j s dt / 2}, built once per integration,
contracted with the coefficients rotated by the chunk's start phase.  When
every off-diagonal coefficient of B is zero (B = None included) the n
components are uncoupled scalar equations: only the diagonal of B is
evaluated, each step's RK4 map is one complex factor per component, and a
running product of those factors, seeded with the chunk's start value,
gives the chunk's trajectory rows in the order the steps are taken.  A
coupled B makes each step's RK4 map an n x n propagator, and a doubling
prefix product turns those into the rows.

`linearized_chunks` yields the rows one chunk at a time.  The full
trajectory (`integrate_linearized`) is one reader of that stream; a
stability run is another (`sample_stream`), which keeps only the drift and
the rows at a few given steps, so its memory does not grow with T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .csvfmt import format_parts
from .fourier import FourierSeries

# Steps per chunk; bounds the batched evaluation and propagator arrays.
CHUNK = 1024


@dataclass
class LinearTrajectory:
    times: np.ndarray        # (nt,) increasing
    z: np.ndarray            # (nt, n) complex

    def __post_init__(self):
        if not np.all(np.isfinite(self.z)):
            raise ValueError("trajectory contains non-finite amplitudes")


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked product a @ b of (c, n, n) arrays as n broadcast products;
    for small n this beats np.matmul's per-matrix BLAS calls."""
    out = a[:, :, :1] * b[:, :1, :]
    for j in range(1, a.shape[-1]):
        out += a[:, :, j:j + 1] * b[:, j:j + 1, :]
    return out


def _phase_tables(omega: np.ndarray, cutoff: int, dt: float,
                  count: int) -> np.ndarray:
    """Per-axis factors E_j[k, s] = e^{i k omega_j s dt/2} for |k| <= cutoff
    and s = 0 .. 2 count: shape (d, 2 cutoff + 1, 2 count + 1)."""
    k = np.arange(-cutoff, cutoff + 1)
    s = 0.5 * dt * np.arange(2 * count + 1)
    return np.exp(1j * np.stack([np.outer(k, w * s) for w in omega]))


def _orbit_generator(iB: np.ndarray, tables: np.ndarray, omega: np.ndarray,
                     x0: np.ndarray, t0: float, count: int) -> np.ndarray:
    """Values of i B(omega t + x0) at t = t0 + s dt/2, s = 0 .. 2 count,
    from coefficients iB of shape lead + (2 cutoff + 1,) * d, 1j * B.data
    or its diagonal: shape (2 count + 1,) + lead.  The coefficients are
    rotated by e^{i k_j (omega_j t0 + x0_j)} and contracted with the phase
    tables one axis at a time, the last axis as one matrix product."""
    d, K = tables.shape[:2]
    p = 2 * count + 1
    lead = iB.shape[:iB.ndim - d]
    phase = np.exp(1j * np.outer(omega * t0 + x0, np.arange(K) - K // 2))
    rot = iB
    for j in range(d):
        rot = rot * phase[j].reshape((K,) + (1,) * (d - 1 - j))
    acc = rot.reshape(-1, K) @ tables[-1, :, :p]
    for j in range(d - 2, -1, -1):
        acc = np.einsum("mkp,kp->mp", acc.reshape(-1, K, p),
                        tables[j, :, :p])
    return np.moveaxis(acc.reshape(lead + (p,)), -1, 0)


def _propagators(A: np.ndarray, Omega: np.ndarray, dt: float) -> np.ndarray:
    """RK4 maps M_i, z_{i+1} = M_i z_i, of a chunk's steps from i B at its
    2 count + 1 half-step times, A of shape (2 count + 1, n, n), which gets
    i Omega added on its diagonal: shape (count, n, n)."""
    n = A.shape[-1]
    A[:, np.arange(n), np.arange(n)] += 1j * Omega
    A1, A2, A4 = A[:-1:2], A[1::2], A[2::2]
    eye = np.eye(n)
    K2 = _matmul(A2, eye + 0.5 * dt * A1)
    K3 = _matmul(A2, eye + 0.5 * dt * K2)
    K4 = _matmul(A4, eye + dt * K3)
    return eye + (dt / 6.0) * (A1 + 2 * K2 + 2 * K3 + K4)


def _scalar_factors(a: np.ndarray, Omega: np.ndarray,
                    dt: float) -> np.ndarray:
    """RK4 factors m_i, z_{i+1} = m_i z_i, of a chunk's steps for n
    uncoupled components, from the diagonal of i B at its 2 count + 1
    half-step times, a of shape (2 count + 1, n), which gets i Omega added:
    shape (count, n).  The arithmetic of the diagonal of `_propagators`."""
    a += 1j * Omega
    a1, a2, a4 = a[:-1:2], a[1::2], a[2::2]
    k2 = a2 * (1 + 0.5 * dt * a1)
    k3 = a2 * (1 + 0.5 * dt * k2)
    k4 = a4 * (1 + dt * k3)
    return 1 + (dt / 6.0) * (a1 + 2 * k2 + 2 * k3 + k4)


def _prefix_products(P: np.ndarray) -> np.ndarray:
    """Doubling scan over a chunk's (count, n, n) propagators, in place:
    row i becomes P_i ... P_1 P_0."""
    s = 1
    while s < len(P):
        P[s:] = _matmul(P[s:], P[:-s])
        s *= 2
    return P


def linearized_chunks(omega, Omega, B: FourierSeries | None, z0,
                      T: float, dt: float, x0=None):
    """Fixed-step fourth-order integration of z' = i (Omega + B(x)) z along
    x = omega t + x0, as a stream: an iterator over the rows z at steps 1
    .. round(T / dt), one (count, n) array per chunk of at most CHUNK steps.
    Deterministic.  The arguments are checked here; each chunk is computed
    as the iterator reaches it, and the first chunk whose rows are not
    finite raises a ValueError naming the chunk's start time."""
    omega = np.asarray(omega, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    z = np.asarray(z0, dtype=complex).copy()
    n = z.size
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    if Omega.shape != (n,):
        raise ValueError(f"Omega has shape {Omega.shape}, z0 has shape "
                         f"{z.shape}")
    if B is not None and B.d != omega.size:
        raise ValueError(f"B has d = {B.d}, omega has {omega.size} entries")
    if B is not None and B.shape != (n, n):
        raise ValueError(f"B has shape {B.shape}, z0 has shape {z.shape}")
    x0 = np.zeros(omega.size) if x0 is None else np.asarray(x0, dtype=float)
    return _chunks(omega, Omega, B, z, int(round(T / dt)), dt, x0)


def _chunks(omega, Omega, B, z, nsteps, dt, x0):
    """The generator behind `linearized_chunks`, on checked arguments; z
    is the start value, of shape (n,)."""
    n = z.size
    coupled = B is not None and B.data[~np.eye(n, dtype=bool)].any()
    if B is not None:
        iB = 1j * (B.data if coupled else B.data[np.arange(n), np.arange(n)])
        tables = _phase_tables(omega, B.cutoff, dt, min(CHUNK, nsteps))
    for start in range(0, nsteps, CHUNK):
        count = min(CHUNK, nsteps - start)
        # an overflowing run is reported by the finiteness test below
        with np.errstate(over="ignore", invalid="ignore"):
            if B is None:
                A = np.zeros((2 * count + 1, n), dtype=complex)
            else:
                A = _orbit_generator(iB, tables, omega, x0, start * dt, count)
            if coupled:
                rows = _prefix_products(_propagators(A, Omega, dt)) @ z
            else:
                rows = _scalar_factors(A, Omega, dt)
                rows[0] *= z
                np.cumprod(rows, axis=0, out=rows)
        if not np.isfinite(rows).all():
            raise ValueError(
                "trajectory contains non-finite amplitudes in the "
                f"chunk from t = {start * dt:.6g}")
        z = rows[-1].copy()
        yield rows


def integrate_linearized(omega, Omega, B: FourierSeries | None, z0,
                         T: float, dt: float, x0=None) -> LinearTrajectory:
    """Every row of `linearized_chunks`' integration, z0 first, with its
    time: the full trajectory, about 16 n + 8 bytes per step."""
    chunks = linearized_chunks(omega, Omega, B, z0, T, dt, x0)
    nsteps = int(round(T / dt))
    traj = np.empty((nsteps + 1, np.size(z0)), dtype=complex)
    traj[0] = z0
    for start, rows in zip(range(1, nsteps + 1, CHUNK), chunks):
        traj[start:start + len(rows)] = rows
    return LinearTrajectory(times=dt * np.arange(nsteps + 1), z=traj)


def sample_stream(chunks, z0, picks):
    """Read a `linearized_chunks` stream from z0, keeping per chunk only
    what a stability run reports: the drift `l2_drift` gives on the full
    trajectory, and for each sorted array of step indices in `picks` the
    rows z at those steps (z0 at step 0).  Returns (drift, [rows, ...])."""
    z0 = np.asarray(z0, dtype=complex)
    total0 = _norm_sq(z0[None])
    drift = np.float64(0.0)
    kept = []
    for steps in picks:
        z = np.empty((len(steps), z0.size), dtype=complex)
        z[steps == 0] = z0
        kept.append(z)
    start = 0           # step of the row before the chunk's first
    for rows in chunks:
        stop = start + len(rows)
        # np.maximum, unlike max, carries a NaN drift as l2_drift does
        drift = np.maximum(drift, np.abs(_norm_sq(rows) - total0).max())
        for steps, z in zip(picks, kept):
            lo, hi = np.searchsorted(steps, (start + 1, stop + 1))
            z[lo:hi] = rows[steps[lo:hi] - start - 1]
        start = stop
    return float(drift), kept


def _norm_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 of each row of z."""
    return (np.abs(z) ** 2).sum(axis=1)


def l2_drift(traj: LinearTrajectory) -> float:
    """Largest deviation of |z(t)|^2 from its initial value."""
    total = _norm_sq(traj.z)
    return float(np.abs(total - total[0]).max())


def lyapunov_estimate(traj: LinearTrajectory,
                      return_halves: bool = False):
    """Finite-time top Lyapunov estimate log(|z(T)| / |z(0)|) / T.  With
    return_halves=True also reports the estimate over [0, T/2] and
    [T/2, T] so stabilization can be judged."""
    m = len(traj.z) // 2
    amp = np.linalg.norm(traj.z[[0, m, -1]], axis=1)
    if amp[0] == 0.0:
        raise ValueError("zero initial condition")
    T = traj.times[-1] - traj.times[0]
    full = float(np.log(amp[-1] / amp[0]) / T)
    if not return_halves:
        return full
    first = float(np.log(amp[1] / amp[0]) / (traj.times[m] - traj.times[0]))
    second = float(np.log(amp[-1] / amp[1])
                   / (traj.times[-1] - traj.times[m]))
    return full, first, second


def symmetry_defect(B: FourierSeries | None) -> float:
    """Worst deviation of B(x) from a real symmetric matrix over x = 0 and
    16 angles drawn from seed 0.  Zero for any coupling produced by an
    accepted normal form; a planted asymmetric or gain term shows up
    immediately."""
    if B is None:
        return 0.0
    pts = np.vstack([np.zeros(B.d),
                     default_rng(0).uniform(0, 2 * np.pi, size=(16, B.d))])
    vals = B.evaluate(pts)
    return float(max(np.abs(vals - vals.transpose(0, 2, 1)).max(),
                     np.abs(vals.imag).max()))


def trajectory_csv_parts(traj: LinearTrajectory, stride: int = 1):
    """The text of `trajectory_csv(traj, stride)` in parts: the header
    line, then `csvfmt.format_parts` of the table, each made as it is
    read."""
    n = traj.z.shape[1]
    cols = ["t"]
    cols += [f"re_z{j}" for j in range(n)]
    cols += [f"im_z{j}" for j in range(n)]
    cols.append("norm_sq")
    yield ",".join(cols) + "\n"
    z = traj.z[::stride]
    yield from format_parts(np.column_stack([traj.times[::stride], z.real,
                                             z.imag, _norm_sq(z)]))


def trajectory_csv(traj: LinearTrajectory, stride: int = 1) -> str:
    """Deterministic CSV: t, Re z_j, Im z_j, |z|^2 at every stride-th step,
    each value `{:.17e}`.  The vectorised kernel `csvfmt.format_rows`
    writes the values, byte-identical to Python's format(v, ".17e");
    `format` itself writes those the kernel cannot decide: non-finite
    values, nonzero |v| outside [1e-280, 1e280], values within 1e-6 of a
    tie in their 18th digit, and values within two 18th-digit units of a
    power of ten."""
    return "".join(trajectory_csv_parts(traj, stride))

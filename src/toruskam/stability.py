"""Linear stability checks around a quasi-periodic orbit.

Integrates the variational equation z' = i (Omega + B(omega t + x0)) z with
a fixed-step classical Runge-Kutta scheme (fixed step for determinism and
clean order-of-convergence studies), then reads off the two certificates of
elliptic behaviour: the l2 norm of z is conserved and the top Lyapunov
exponent vanishes.  A non-symmetric or non-real B breaks conservation, which
is exactly how planted sentinels are detected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries, mode_grid


@dataclass
class LinearTrajectory:
    times: np.ndarray        # (nt,) increasing
    z: np.ndarray            # (nt, n) complex
    x: np.ndarray            # (nt, d) real, omega t + x0 mod 2 pi

    def __post_init__(self):
        if not np.all(np.isfinite(self.z)):
            raise ValueError("trajectory contains non-finite amplitudes")


def _coupling_evaluator(B: FourierSeries | None, n: int):
    """Return x -> B(x) as an (n, n) complex array, with the mode sum
    flattened to one matrix-vector product."""
    if B is None or B.max_abs_coeff() == 0.0:
        zero = np.zeros((n, n), dtype=complex)
        return lambda x: zero, True
    modes = mode_grid(B.d, B.cutoff).reshape(-1, B.d)       # (nm, d)
    flat = B.data.reshape(n * n, -1)                        # (n^2, nm)
    nonzero = np.abs(modes).max(axis=1) > 0
    constant = not nonzero.any() \
        or np.abs(flat[:, nonzero]).max() == 0.0

    def ev(x):
        phases = np.exp(1j * (modes @ x))
        return (flat @ phases).reshape(n, n)

    return ev, constant


def integrate_linearized(omega, Omega, B: FourierSeries | None, z0,
                         T: float, dt: float, x0=None) -> LinearTrajectory:
    """Fixed-step fourth-order integration of z' = i (Omega + B(x)) z along
    x = omega t + x0.  Deterministic; the step count is round(T / dt)."""
    omega = np.asarray(omega, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    z = np.asarray(z0, dtype=complex).copy()
    n = z.size
    if dt <= 0 or T <= 0:
        raise ValueError("T and dt must be positive")
    x0 = np.zeros(omega.size) if x0 is None else np.asarray(x0, dtype=float)
    ev, constant = _coupling_evaluator(B, n)

    diag = 1j * Omega

    def gen(t):
        A = 1j * ev(omega * t + x0)
        A[np.diag_indices(n)] += diag
        return A

    nsteps = int(round(T / dt))
    times = dt * np.arange(nsteps + 1)
    traj = np.empty((nsteps + 1, n), dtype=complex)
    traj[0] = z
    if constant:
        A0 = gen(0.0)
        for i in range(nsteps):
            k1 = A0 @ traj[i]
            k2 = A0 @ (traj[i] + 0.5 * dt * k1)
            k3 = A0 @ (traj[i] + 0.5 * dt * k2)
            k4 = A0 @ (traj[i] + dt * k3)
            traj[i + 1] = traj[i] + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    else:
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
    xs = np.mod(times[:, None] * omega[None, :] + x0[None, :], 2 * np.pi)
    return LinearTrajectory(times=times, z=traj, x=xs)


def l2_drift(traj: LinearTrajectory) -> float:
    """Largest deviation of |z(t)|^2 from its initial value."""
    norms = np.abs(traj.z) ** 2
    total = norms.sum(axis=1)
    return float(np.abs(total - total[0]).max())


def lyapunov_estimate(traj: LinearTrajectory,
                      return_halves: bool = False):
    """Finite-time top Lyapunov estimate log(|z(T)| / |z(0)|) / T.  With
    return_halves=True also reports the estimate over [0, T/2] and
    [T/2, T] so stabilization can be judged."""
    amp = np.linalg.norm(traj.z, axis=1)
    if amp[0] == 0.0:
        raise ValueError("zero initial condition")
    T = traj.times[-1] - traj.times[0]
    full = float(np.log(amp[-1] / amp[0]) / T)
    if not return_halves:
        return full
    m = len(amp) // 2
    first = float(np.log(amp[m] / amp[0]) / (traj.times[m] - traj.times[0]))
    second = float(np.log(amp[-1] / amp[m])
                   / (traj.times[-1] - traj.times[m]))
    return full, first, second


def symmetry_defect(B: FourierSeries | None, samples: int = 16,
                    seed: int = 0) -> float:
    """Worst deviation of B(x) from a real symmetric matrix over a sample of
    angles.  Zero for any coupling produced by an accepted normal form; a
    planted asymmetric or gain term shows up immediately."""
    if B is None:
        return 0.0
    rng = np.random.default_rng(seed)
    pts = itertools.chain([np.zeros(B.d)],
                          rng.uniform(0, 2 * np.pi, size=(samples, B.d)))
    worst = 0.0
    for x in pts:
        val = B.evaluate(x)
        worst = max(worst,
                    float(np.abs(val - val.T).max()),
                    float(np.abs(val.imag).max()))
    return worst


def trajectory_csv(traj: LinearTrajectory, stride: int = 1) -> str:
    """Deterministic CSV: t, Re z_j, Im z_j, |z|^2."""
    n = traj.z.shape[1]
    cols = ["t"]
    cols += [f"re_z{j}" for j in range(n)]
    cols += [f"im_z{j}" for j in range(n)]
    cols.append("norm_sq")
    lines = [",".join(cols)]
    for i in range(0, len(traj.times), stride):
        row = [f"{traj.times[i]:.17e}"]
        row += [f"{v:.17e}" for v in traj.z[i].real]
        row += [f"{v:.17e}" for v in traj.z[i].imag]
        row.append(f"{float((np.abs(traj.z[i]) ** 2).sum()):.17e}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

"""Orchestration of the iterative normal-form scheme.

One level of the iteration: split the perturbation at weighted degree 2,
solve the four homological equation classes at the level's mode cutoff,
push the Hamiltonian through the time-1 flow of the generator, re-extract
the normal form (tangent frequencies and the quadratic coefficient matrix,
re-symmetrized with the defect folded back into the perturbation), and
measure the new low-order norm.  The schedule fixes the targets
eps_l = A^{-(4/3)^l} and the analyticity-loss ladder; at desk scale the mode
cutoffs are capped, so contraction is asserted against measured norms and
the schedule targets are reported side by side.  What a run meets on the way
-- a capped cutoff, a dropped mean of R^x, a normal form that drifts, a
missed schedule target -- is recorded as events in the state and the
result, never as a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .atlas import (ParameterAtlas, gamma_floor, nonresonance_predicate,
                    pave_and_filter)
from .csvfmt import labelled_rows
from .fourier import FourierSeries
from .greens import DecayCertificate, level_certificate
from .homological import (NearSingularError, SmallDivisorError, build_T,
                          solve_homological)
from .jets import (HamiltonianJet, LieSeriesDivergence, NormalForm,
                   check_reality, conjugate_jet, lie_transform, matrix_zzbar,
                   split_low_high, vf_norm)


class ParameterExcluded(Exception):
    """The active parameter hit a resonance; callers re-select."""

    def __init__(self, xi, level, reason):
        self.xi = np.asarray(xi, dtype=float)
        self.level = level
        self.reason = reason
        super().__init__(f"parameter {tuple(self.xi.tolist())} excluded at "
                         f"level {level}: {reason}")


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

_ZETA2 = math.pi ** 2 / 6.0


@dataclass(frozen=True)
class KamSchedule:
    A: float
    tau: float
    l_star: int
    s0: float
    r0: float
    N_max: int

    def eps(self, l: int) -> float:
        return self.A ** -((4.0 / 3.0) ** l)

    def e(self, l: int) -> float:
        ks = np.arange(1, l + 1, dtype=float)
        return float((ks ** -2).sum() / (2.0 * _ZETA2))

    def s(self, l: int) -> float:
        return self.s0 * (1.0 - self.e(l))

    def r(self, l: int) -> float:
        return self.r0 * (1.0 - self.e(l))

    def N(self, l: int) -> int:
        nominal = self.A ** (l + 1)
        if nominal > self.N_max:
            return self.N_max
        return max(int(round(nominal)), 1)

    def cap_event(self, l: int) -> dict | None:
        """The event of level l's mode cutoff capped at N_max, if it is."""
        nominal = self.A ** (l + 1)
        if nominal <= self.N_max:
            return None
        return _event(l, "cutoff_capped", f"mode cutoff capped at "
                      f"{self.N_max} (nominal {nominal:.3g})")


def _event(level: int, kind: str, message: str) -> dict:
    return {"level": level, "event": kind, "message": message}


def _with_events(events: list, *new) -> list:
    """events plus each new event that is not None and not yet in it."""
    out = list(events)
    out += [e for e in new if e is not None and e not in out]
    return out


def make_schedule(A: float, eps0: float, tau: float, s0: float, r0: float,
                  N_max: int) -> KamSchedule:
    if A <= 1:
        raise ValueError("A > 1 required")
    # A^{tau l*} = eps^{-1/3}, rounded up
    l_star = max(int(math.ceil(-math.log(eps0) / (3.0 * tau * math.log(A)))),
                 1)
    return KamSchedule(A=float(A), tau=float(tau), l_star=l_star, s0=s0,
                       r0=r0, N_max=N_max)


# ----------------------------------------------------------------------
# states and results
# ----------------------------------------------------------------------

@dataclass
class KamState:
    level: int
    nf: NormalForm
    P: HamiltonianJet
    xi: np.ndarray
    eps_meas: float
    eps_high: float
    extra: dict = field(default_factory=dict)


@dataclass
class TorusResult:
    omega_star: np.ndarray
    B_final: FourierSeries
    residual: float
    atlas: ParameterAtlas | None
    rows: list                # per-level log dictionaries
    exponent: float | None    # measured contraction exponent
    final_low_norm: float
    level_certificate: DecayCertificate   # of the first level's operator
    events: list              # `_event` records, in the order met


def _jet_kw(P: HamiltonianJet) -> dict:
    return dict(max_degree=P.max_degree, cutoff_cap=P.cutoff_cap,
                s_ref=P.s_ref, r_ref=P.r_ref)


def invariance_residual(P: HamiltonianJet, s: float, r: float) -> float:
    """Norm bound for the vector-field defect on the torus y = z = 0.

    Only terms that survive at the origin obstruct invariance: the
    x-dependent scalar part, the y-linear part, and the z / zbar linear
    parts.  Their joint vf_norm dominates the defect.
    """
    keep = {}
    for sig, f in P.terms.items():
        a, b, c = sig
        da, db, dc = sum(a), sum(b), sum(c)
        if (da, db, dc) in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
            keep[sig] = f
    return vf_norm(replace(P, terms=keep, tail=0.0), s, r)


# ----------------------------------------------------------------------
# the iteration
# ----------------------------------------------------------------------

# `run` stops at the first level whose measured low norm is at most this
STOP_THRESHOLD = 1e-14


def initial_step(nf: NormalForm, P: HamiltonianJet, schedule: KamSchedule,
                 gamma: float | None, exclusion_N: int) -> tuple:
    """Measure the input, build the surviving-parameter atlas at the first
    level, certify the level's lattice operator (`level_certificate`: the
    closed-form Combes-Thomas bound, or a condition-gated direct inversion
    when its gate q_0 < 1 fails), and return the starting state
    (with the frequency vector as the active parameter) plus the atlas.
    The input, accepted within 1e-12 of real, is projected onto the real
    subspace, which leaves an exactly real one bit for bit as it is; every
    later level then stays exactly real, and the jet kernel computes half
    of each bracket."""
    ok, worst = check_reality(P)
    if not ok:
        raise ValueError(f"input violates the reality condition: {worst:.3e}")
    P = 0.5 * (P + conjugate_jet(P))
    l = schedule.l_star
    sp = split_low_high(P)
    eps0 = vf_norm(sp.low, schedule.s(l), schedule.r(l))
    eps_high = vf_norm(sp.high, schedule.s(l), schedule.r(l))
    if gamma is None:
        gamma = 0.5 * math.sqrt(max(eps0, 1e-300))
    pred = nonresonance_predicate(nf.Omega, exclusion_N, gamma, schedule.tau)
    root = ParameterAtlas.root(tuple(nf.omega), size_exponent=1)
    atlas, _ = pave_and_filter(root, 1, pred)
    if not atlas.boxes:
        raise ParameterExcluded(nf.omega, l, "empty atlas: every sampled "
                                "parameter hits a resonance")
    if pred(nf.omega[None, :])[0]:
        xi = np.array(nf.omega, dtype=float)
    else:
        centers = np.array([b.center for b in atlas.boxes])
        xi = centers[np.argmin(np.abs(centers - nf.omega).sum(axis=1))]
        nf = NormalForm(xi.copy(), nf.Omega, nf.B)
    T = build_T(nf.omega, nf.Omega, nf.B, matrix_zzbar(sp.low),
                schedule.N(l))
    state = KamState(level=l, nf=nf, P=P, xi=xi, eps_meas=eps0,
                     eps_high=eps_high,
                     extra={"gamma": gamma,
                            "level_certificate":
                                level_certificate(T, threshold=2),
                            "omega_shift": 0.0,
                            "B_symmetry_err": nf.symmetry_error(),
                            "reality_err": check_reality(P, tol=0.0)[1],
                            "events": _with_events([], schedule.cap_event(l))})
    return state, atlas


def kam_step(state: KamState, schedule: KamSchedule) -> tuple:
    """One full level: solve, transform, re-extract the normal form."""
    l = state.level
    nf, P = state.nf, state.P
    d, n = P.d, P.n
    N = schedule.N(l)
    floor = gamma_floor(0.5 * state.extra.get("gamma", 0.0), schedule.tau)
    try:
        sol = solve_homological(nf.omega, nf.Omega, nf.B, P, N,
                                divisor_floor=floor)
    except (SmallDivisorError, NearSingularError) as err:
        raise ParameterExcluded(state.xi, l, str(err)) from err
    F = sol.generator_jet(d, n, **_jet_kw(P))
    H = nf.to_jet(**_jet_kw(P)) + P
    try:
        lie = lie_transform(H, F)
    except LieSeriesDivergence as err:
        err.level = l
        raise
    Hp = lie.jet

    omega_new = nf.omega + np.real(np.asarray(sol.freq_shift))
    M = matrix_zzbar(Hp)
    Bfull = M - FourierSeries.constant(d, np.diag(nf.Omega)).pad(M.cutoff)
    Bsym = 0.5 * (Bfull + Bfull.transpose())
    B_new = 0.5 * (Bsym + Bsym.conj_function())
    fold_defect = (Bfull - B_new).max_abs_coeff()
    nf_new = NormalForm(omega_new, nf.Omega, B_new)

    P_new = Hp - nf_new.to_jet(**_jet_kw(P))
    # drop the irrelevant constant energy shift
    sig0 = ((0,) * d, (0,) * n, (0,) * n)
    if sig0 in P_new.terms:
        f = P_new.terms[sig0]
        mean = FourierSeries.constant(d, f.coeff((0,) * d)).pad(f.cutoff)
        P_new = replace(P_new, terms={**P_new.terms, sig0: f - mean})

    sp = split_low_high(P_new)
    s1, r1 = schedule.s(l + 1), schedule.r(l + 1)
    eps_new = vf_norm(sp.low, s1, r1)
    eps_high = vf_norm(sp.high, s1, r1)

    drift = float(np.abs(omega_new - nf.omega).max())
    if drift > math.sqrt(max(state.eps_meas, 1e-300)):
        raise ParameterExcluded(state.xi, l,
                                f"frequency drift {drift:.3e} beyond "
                                f"sqrt(eps) = {math.sqrt(state.eps_meas):.3e}")
    bdrift = (B_new - nf.B.pad(B_new.cutoff)).max_abs_coeff()
    rx_mean = sol.solve_info["rx_mean"]
    events = _with_events(
        state.extra.get("events", []), schedule.cap_event(l),
        {**_event(l, "rx_mean_dropped", f"R^x mean of modulus {rx_mean!r} "
                  "dropped (an energy shift only)"), "abs_mean": rx_mean}
        if rx_mean > 1e-15 else None,
        _event(l, "normal_form_drift", f"normal-form drift {bdrift:.3e} "
               "beyond eps^(1/10)")
        if bdrift > max(state.eps_meas, 1e-300) ** 0.1 else None,
        _event(l + 1, "schedule_target_missed", f"measured low norm "
               f"{eps_new:.3e} misses the schedule target "
               f"{schedule.eps(l + 1):.3e} at level {l + 1}")
        if eps_new > schedule.eps(l + 1) else None)

    _, reality_err = check_reality(P_new, tol=0.0)
    new = KamState(level=l + 1, nf=nf_new, P=P_new, xi=state.xi,
                   eps_meas=eps_new, eps_high=eps_high,
                   extra={**state.extra,
                          "omega_shift": drift,
                          "B_symmetry_err": nf_new.symmetry_error(),
                          "B_fold_defect": float(fold_defect),
                          "reality_err": float(reality_err),
                          "lie_tail": lie.tail_bound,
                          "lie_skipped_keys": lie.skipped_keys,
                          "lie_skipped_bound": lie.skipped_bound,
                          "events": events})
    return new, sol


def contraction_exponent(eps_values) -> float | None:
    """Least-squares slope through the origin of log eps_{l+1} vs log eps_l."""
    pairs = [(a, b) for a, b in zip(eps_values, eps_values[1:])
             if 0 < a < 1 and 0 < b < 1]
    if not pairs:
        return None
    x = np.log([a for a, _ in pairs])
    y = np.log([b for _, b in pairs])
    return float((x @ y) / (x @ x))


def run(nf: NormalForm, P: HamiltonianJet, schedule: KamSchedule,
        max_levels: int, gamma: float | None, exclusion_N: int) -> TorusResult:
    state, atlas = initial_step(nf, P, schedule, gamma, exclusion_N)
    rows = []
    while True:
        extra = state.extra
        rows.append({"level": state.level, "eps_meas": state.eps_meas,
                     "eps_sched": schedule.eps(state.level),
                     "omega_shift": extra["omega_shift"],
                     "B_symmetry_err": extra["B_symmetry_err"],
                     "residual": invariance_residual(
                         state.P, schedule.s(state.level),
                         schedule.r(state.level)),
                     "eps_high": state.eps_high,
                     "reality_err": extra["reality_err"],
                     "lie_tail": extra.get("lie_tail"),
                     "lie_skipped_keys": extra.get("lie_skipped_keys"),
                     "lie_skipped_bound": extra.get("lie_skipped_bound"),
                     "B_fold_defect": extra.get("B_fold_defect")})
        if len(rows) > max_levels or not state.eps_meas > STOP_THRESHOLD:
            break
        try:
            state, _ = kam_step(state, schedule)
        except (ParameterExcluded, LieSeriesDivergence) as err:
            # the failure carries what the finished levels recorded
            err.rows, err.events = rows, state.extra["events"]
            raise
    return TorusResult(omega_star=state.nf.omega, B_final=state.nf.B,
                       residual=rows[-1]["residual"],
                       atlas=atlas, rows=rows,
                       exponent=contraction_exponent(
                           [r["eps_meas"] for r in rows]),
                       final_low_norm=state.eps_meas,
                       level_certificate=state.extra["level_certificate"],
                       events=state.extra["events"])


def log_csv(rows) -> str:
    """Deterministic per-level CSV: the level, then `{:.17e}` floats."""
    keys = ("eps_meas", "eps_sched", "omega_shift", "B_symmetry_err",
            "residual")
    return labelled_rows(("level",) + keys, [r["level"] for r in rows],
                         [[float(r[k]) for k in keys] for r in rows])

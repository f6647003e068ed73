"""Solvers for fiber-field coefficients annihilating the reduced Futaki vector.

Three regimes:

* ``solve_soliton``  -- the Kaehler-Ricci case sigma(s) = -s, where the root is
  the critical point of the strictly convex proper moment integral
  Phi(c) = int_{P*} h(z) exp(-<c, z>) dz (Newton with step halving);
* ``solve_path_1d`` / ``find_tau0`` -- the one-dimensional interpolation paths
  sigma_tau, solved by Brent's method on certified brackets in the affine
  coordinates k(z) = b_1 z + b_2 (the normalization ties b_2 = -b_h b_1,
  leaving b_1 free), with exact rational admissible intervals and boundary
  fields;
* ``solve_general`` -- damped Newton on the Futaki vector itself for any
  admissible profile, with a safeguard keeping iterates strictly inside the
  admissible set and a boundary-obstruction report when they will not stay.

Both Newton solvers read the volume, the Futaki vector and its analytic
Jacobian from one pushforward call (``_moments``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .functionals import (
    FiberField,
    field_domain_margins,
    g_integral,
    normalize_field,
)
from .ksm import KSMData, h_stats
from .sigma import SigmaProfile, linear, tau_mix

__all__ = [
    "SolveReport",
    "solve_soliton",
    "solve_path_1d",
    "find_tau0",
    "solve_general",
    "path_interval_1d",
]

MARGIN_SAFEGUARD = 1e-12


@dataclass(frozen=True)
class SolveReport:
    method: str
    success: bool
    message: str
    coefficients: tuple[float, ...] | None
    residual: float
    iterations: int
    margins: tuple[float, float] | None = None  # (k_min - alpha, beta - k_max)
    diagnostics: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "success": self.success,
            "message": self.message,
            "coefficients": list(self.coefficients) if self.coefficients else None,
            "residual": self.residual,
            "iterations": self.iterations,
            "margins": list(self.margins) if self.margins else None,
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# the Futaki vector and its Jacobian
# ---------------------------------------------------------------------------


def _moments(data: KSMData, profile: SigmaProfile, fld: FiberField, b) -> tuple:
    """(vol, F, J) = int (1, z, z (z - b)^T sigma'(k)) g dz over P*, one
    pushforward call.

    With b = b_h, F is the reduced Futaki vector and J its Jacobian in c:
    d k / d c = b_h - z, and d exp(-sigma(k)) / d k = -sigma'(k) exp(-sigma(k)).
    sigma'(k) is constant on every level set of k, so the pushforward rule
    integrates J as exactly as F.
    """
    l = fld.dimension

    def columns(zs):
        d1 = profile.evaluate(fld.k_values(zs))[1]
        outer = zs[:, :, None] * (zs - b)[:, None, :] * d1[:, None, None]
        return np.column_stack([np.ones(len(zs)), zs, outer.reshape(len(zs), l * l)])

    m = g_integral(data, profile, fld, columns)
    return m[0], m[1 : l + 1], m[l + 1 :].reshape(l, l)


# ---------------------------------------------------------------------------
# Kaehler-Ricci soliton: Newton on the convex moment integral
# ---------------------------------------------------------------------------


def solve_soliton(data: KSMData, *, tol: float = 1e-12, max_iter: int = 200) -> SolveReport:
    """Fiber soliton coefficients: the unique root of int z h e^{-<c,z>} dz.

    Phi(c) = int h e^{-<c,z>} is strictly convex and proper (the origin is an
    interior point of P*), so Newton with step halving converges from c = 0.
    Convergence target: ||grad Phi|| / Phi <= tol, which equals ||b_g|| for
    the linear profile.  With k = -<c, z> and sigma' = -1, ``_moments`` at
    b = 0 gives (Phi, -grad Phi, -Hess Phi).
    """
    if data.fiber_dimension > 2:
        raise ValueError("soliton solve implemented for l <= 2")
    dual = data.dual()
    l = data.fiber_dimension
    profile = linear(0.0)
    zero = np.zeros(l)

    def field(c):
        # k(z) = -<c, z>, so that g = h exp(k) = h e^{-<c,z>}
        return FiberField(tuple(c), 0.0, tuple(-(dual.vertex_array @ c)))

    c = np.zeros(l)
    phi, F, J = _moments(data, profile, field(c), zero)
    for it in range(1, max_iter + 1):
        res = float(np.linalg.norm(F) / phi)
        if res <= tol:
            return SolveReport(
                method="soliton",
                success=True,
                message="converged",
                coefficients=tuple(float(x) for x in c),
                residual=res,
                iterations=it - 1,
                diagnostics={"phi": phi},
            )
        step = np.linalg.solve(J, -F)  # -Hess Phi^{-1} grad Phi
        lam = 1.0
        while lam > 1e-12:
            cand = c + lam * step
            trial = _moments(data, profile, field(cand), zero)
            # near the root a Newton step lowers Phi by about |grad|^2, less
            # than the rounding of Phi itself; accept within that rounding
            if trial[0] <= phi * (1.0 + 1e-14):
                c, (phi, F, J) = cand, trial
                break
            lam *= 0.5
        else:
            break
    res = float(np.linalg.norm(F) / phi)
    return SolveReport(
        method="soliton",
        success=res <= tol,
        message="converged" if res <= tol else f"iteration cap hit at residual {res:.3e}",
        coefficients=tuple(float(x) for x in c),
        residual=res,
        iterations=max_iter,
    )


# ---------------------------------------------------------------------------
# 1D tau-paths
# ---------------------------------------------------------------------------


def _field_from_b1(data: KSMData, hs, b1) -> FiberField:
    """1D field in affine coordinates k(z) = b1 z + b2 with b2 = -b_h b1."""
    # k(z) = -c z + C_V with c = -b1; the normalization then gives b2 exactly
    return normalize_field([-b1 if isinstance(b1, Fraction) else -float(b1)], hs, data.dual())


def path_interval_1d(data: KSMData) -> tuple[Fraction, Fraction]:
    """Exact admissible interval of b1 for the tau-paths (alpha = -1):
    k stays > -1 on P* iff b1 in (-1/(1 - b_h), 1/(1 + b_h))."""
    return _path_interval(data, h_stats(data))


def _path_interval(data: KSMData, hs) -> tuple[Fraction, Fraction]:
    """``path_interval_1d`` from the h-statistics ``hs`` of ``data``."""
    if data.fiber_dimension != 1:
        raise ValueError("tau-paths are one-dimensional")
    bh = hs.barycenter_h_exact[0]
    return (Fraction(-1) / (1 - bh), Fraction(1) / (1 + bh))


def _futaki_1d(data, profile, fld):
    """int z g dz over P* for a 1D field: a float, or one value per profile
    when ``profile`` is a list of one family (see ``simplex_g_integrals``)."""
    return g_integral(data, profile, fld, lambda zs: zs[:, 0])


def _bracketed_root(f, a: float, b: float, tol: float, max_iter: int):
    """Brent's method on a bracket [a, b] where f changes sign, run to the
    rounding of the root.  Returns (root, iterations, |f(root)|, failure):
    failure is None when |f(root)| <= tol, else the report message."""
    x, info = brentq(
        f, a, b, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=max_iter,
        full_output=True, disp=False,
    )
    res = abs(f(x))
    why = "iteration cap hit" if not info.converged else "root bracketed to rounding"
    return x, info.iterations, res, None if res <= tol else f"{why}; best |I| = {res:.3e}"


def solve_path_1d(
    data: KSMData,
    tau: float,
    *,
    tol: float = 1e-11,
    max_iter: int = 300,
) -> SolveReport:
    """Solve the barycenter condition I_tau(b1) = 0 along the sigma_tau path
    by Brent's method on the admissible interval of b1.

    Endpoint signs are certified at the exact interval endpoints (boundary
    fields, integrated with Jacobi weights); the root satisfies |I| <= tol.
    Reports both the b1 and b2 = -b_h b1 coordinates.
    """
    profile = tau_mix(tau)
    hs = h_stats(data)
    lo, hi = _path_interval(data, hs)
    bh = hs.barycenter_h_exact[0]
    I_lo = _futaki_1d(data, profile, _field_from_b1(data, hs, lo))
    I_hi = _futaki_1d(data, profile, _field_from_b1(data, hs, hi))
    diag = {
        "tau": tau,
        "interval_b1": (lo, hi),
        "interval_b2": (-bh * lo, -bh * hi),
        "endpoint_values": {"lower": I_lo, "upper": I_hi},
    }
    if I_lo == 0.0 or I_hi == 0.0 or (I_lo > 0) == (I_hi > 0):
        return SolveReport(
            method="path",
            success=False,
            message="no interior root: endpoint Futaki values do not change sign",
            coefficients=None,
            residual=min(abs(I_lo), abs(I_hi)),
            iterations=0,
            diagnostics=diag,
        )
    b1, it, res, failure = _bracketed_root(
        lambda b: _futaki_1d(data, profile, _field_from_b1(data, hs, b)),
        float(lo), float(hi), tol, max_iter,
    )
    fld = _field_from_b1(data, hs, b1)
    return SolveReport(
        method="path",
        success=failure is None,
        message=failure or "root certified",
        coefficients=None if failure else tuple(fld.coeffs),
        residual=res,
        iterations=it,
        margins=None if failure else (fld.k_min - profile.alpha, math.inf),
        diagnostics=diag if failure else {**diag, "b1": b1, "b2": float(-bh) * b1},
    )


def find_tau0(
    data: KSMData,
    *,
    boundary: str = "auto",
    tol: float = 1e-11,
    grid_step: float = 1e-3,
    max_iter: int = 300,
) -> tuple[float | None, SolveReport]:
    """Brent's method in tau for a vanishing boundary Futaki value.

    The field sits exactly at an admissible-interval endpoint (k_min = -1, so
    g vanishes at one dual vertex).  ``boundary`` picks the endpoint: "lower"
    (b1 at the left end), "upper", or "auto" (try lower then upper).  A tau
    grid of step ``grid_step`` records every sign change; only the first
    bracketed root is certified to |I| <= tol.  Returns (tau0 or None, report).

    Each side builds its boundary field once.  The grid takes two batched
    pushforward calls (``simplex_g_integrals`` with a list of profiles): one
    for tau = 0, where g does not vanish at the boundary, and one for all
    tau > 0, which share every node but the Gauss-Jacobi piece at the
    boundary vertex.  Brent then evaluates single taus on the first bracket.
    """
    hs = h_stats(data)
    lo, hi = _path_interval(data, hs)
    sides = {"lower": [lo], "upper": [hi], "auto": [lo, hi]}[boundary]
    all_diag = {}
    for b1 in sides:
        side_name = "lower" if b1 == lo else "upper"
        fld = _field_from_b1(data, hs, b1)

        def I(tau_val):
            return _futaki_1d(data, tau_mix(tau_val), fld)

        taus = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
        vals = np.concatenate(
            [_futaki_1d(data, [tau_mix(t) for t in ts], fld) for ts in (taus[:1], taus[1:])]
        )
        changes = [
            (float(taus[i]), float(taus[i + 1]))
            for i in range(len(taus) - 1)
            if (vals[i] > 0) != (vals[i + 1] > 0)
        ]
        all_diag[side_name] = {
            "b1": b1,
            "boundary_k": fld.vertex_values_exact or fld.vertex_values,
            "sign_changes": changes,
            "I_at_0": float(vals[0]),
            "I_at_1": float(vals[-1]),
        }
        if not changes:
            continue
        tau0, it, res, failure = _bracketed_root(I, *changes[0], tol, max_iter)
        return (None if failure else tau0), SolveReport(
            method="tau0",
            success=failure is None,
            message=failure or f"boundary root certified at the {side_name} endpoint",
            coefficients=None if failure else tuple(fld.coeffs),
            residual=res,
            iterations=it,
            margins=None if failure else (0.0, math.inf),
            diagnostics=all_diag if failure else {**all_diag, "tau0": tau0, "side": side_name},
        )
    return None, SolveReport(
        method="tau0",
        success=False,
        message="no boundary root: the boundary Futaki value never changes sign",
        coefficients=None,
        residual=float("nan"),
        iterations=0,
        diagnostics=all_diag,
    )


# ---------------------------------------------------------------------------
# general damped Newton
# ---------------------------------------------------------------------------


def solve_general(
    data: KSMData,
    profile: SigmaProfile,
    c0,
    *,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> SolveReport:
    """Damped Newton on the reduced Futaki vector F(c) for any admissible
    profile, with the analytic Jacobian of ``_moments``.  Backtracking keeps
    k(P*) strictly inside (alpha, beta) and asks ||F|| to fall; hitting the
    admissible-set boundary yields a boundary-obstruction report with the
    last iterate.  Every exit reports the residual ||F|| / vol."""
    if data.fiber_dimension > 2:
        raise ValueError("general solve implemented for l <= 2")
    hs = h_stats(data)
    dual = data.dual()
    span = profile.beta - profile.alpha
    safeguard = MARGIN_SAFEGUARD * (span if math.isfinite(span) else 1.0)

    def admissible(c):
        fld = normalize_field([float(x) for x in c], hs, dual)
        lo, hi = field_domain_margins(fld, profile)
        return (lo >= safeguard and hi > 0), fld

    c = np.asarray([float(x) for x in (c0 if hasattr(c0, "__len__") else [c0])], dtype=float)
    ok, fld = admissible(c)
    if not ok:
        raise ValueError("initial guess is not strictly admissible")
    vol, F, J = _moments(data, profile, fld, hs.barycenter_h)

    for it in range(max_iter + 1):
        res = float(np.linalg.norm(F) / vol)
        if res <= tol or it == max_iter:
            return SolveReport(
                method="general",
                success=res <= tol,
                message="converged" if res <= tol else "iteration cap hit",
                coefficients=tuple(float(x) for x in c),
                residual=res,
                iterations=it,
                margins=field_domain_margins(fld, profile),
                diagnostics={"volume_g": vol},
            )
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = -F
        lam = 1.0
        while lam > 1e-10:
            cand = c + lam * step
            ok, fld_c = admissible(cand)
            if ok:
                trial = _moments(data, profile, fld_c, hs.barycenter_h)
                if np.linalg.norm(trial[1]) <= (1 - 1e-4 * lam) * np.linalg.norm(F):
                    c, fld, (vol, F, J) = cand, fld_c, trial
                    break
            lam *= 0.5
        else:
            return SolveReport(
                method="general",
                success=False,
                message=(
                    "boundary obstruction: iterates cannot reduce the Futaki vector "
                    "without leaving the admissible set"
                ),
                coefficients=tuple(float(x) for x in c),
                residual=res,
                iterations=it + 1,
                margins=field_domain_margins(fld, profile),
                diagnostics={"last_futaki": [float(x) for x in F]},
            )

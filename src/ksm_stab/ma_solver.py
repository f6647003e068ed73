"""Reduced real Monge-Ampere solver and weak-solution verification.

The equation g(grad u) det(Hess u) = exp(-u) is solved by minimizing the Ding
functional over dual grid values.  In nodal coordinates the gradient of D is
the mismatch of two probability vectors: the g-weighted hat masses of the
grid against the exp(-u) masses of the primal linearity cells, so the
stopping rule is exactly the Alexandrov residual in total variation.  Both
the log term and the cell masses are exact closed forms, in 1D and 2D.  The
1D path uses a damped Newton direction assembled from the exact
tridiagonal-plus-rank-one Hessian of the log term (breakpoint fluxes); 2D
uses projected gradient descent with Armijo backtracking.

Verification channels: the Alexandrov measure of the solution (cell masses
against exp(-u)), the dual-side ODE residual w'' = g e^{z w' - w} in 1D, and
the subsolution construction of the non-uniform regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .convex import ConvexDualGrid, grid_from_values, pl_exp_integral_1d
from .functionals import (
    Functionals,
    Verdict,
    g_values,
    simplex_g_integrals,
    stability_verdict,
)
from .sigma import check_growth

__all__ = [
    "MASolution",
    "AlexandrovMeasure",
    "UnstableInputError",
    "minimize_ding",
    "alexandrov_measure",
    "ode_residual_1d",
    "build_subsolution",
]


# default Alexandrov TV tolerance per solution mode
DEFAULT_TOL_TV = {"uniform": 1e-4, "non_uniform": 1e-3}


class UnstableInputError(ValueError):
    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        super().__init__(
            f"refusing Monge-Ampere solve on an unstable instance "
            f"(||b_g|| = {verdict.barycenter_norm:.3e})"
        )


@dataclass
class MASolution:
    u: ConvexDualGrid  # normalized so that int exp(-u) = |P*|_g
    ding_value: float
    residual_tv: float
    residual_sup: float
    gradient_image_coverage: float
    shift: float
    iterations: int
    converged: bool
    mode: str  # "uniform" | "non_uniform"
    regularity: dict

    def to_json(self) -> dict:
        return {
            "ding_value": self.ding_value,
            "residual_tv": self.residual_tv,
            "residual_sup": self.residual_sup,
            "gradient_image_coverage": self.gradient_image_coverage,
            "shift": self.shift,
            "iterations": self.iterations,
            "converged": self.converged,
            "mode": self.mode,
            "regularity": self.regularity,
        }


@dataclass
class AlexandrovMeasure:
    points: np.ndarray  # (k, l) primal locations carrying mass
    masses: np.ndarray  # (k,)

    @property
    def total(self) -> float:
        return float(np.sum(self.masses))


# ---------------------------------------------------------------------------
# log-sum-exp conjugates (solver initialization, subsolutions)
# ---------------------------------------------------------------------------


def _lse_value(points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    E = ys @ points.T
    mx = np.max(E, axis=1, keepdims=True)
    return mx[:, 0] + np.log(np.sum(np.exp(E - mx), axis=1))


def _lse_grad_hess(points: np.ndarray, ys: np.ndarray):
    E = ys @ points.T
    E -= np.max(E, axis=1, keepdims=True)
    W = np.exp(E)
    W /= np.sum(W, axis=1, keepdims=True)
    grad = W @ points
    # hess_i = sum_j w_ij p_j p_j^T - grad_i grad_i^T
    l = points.shape[1]
    hess = np.einsum("ij,jk,jl->ikl", W, points, points) - np.einsum(
        "ik,il->ikl", grad, grad
    )
    return grad, hess.reshape(-1, l, l)


def _lse_conjugate(points: np.ndarray, zs: np.ndarray, cap: float = 80.0) -> np.ndarray:
    """sup_y (<y,z> - log sum exp(<p, y>)) per row of zs, clipped at |y| <= cap."""
    l = points.shape[1]
    m = zs.shape[0]
    if l == 1:
        lo = np.full(m, -cap)
        hi = np.full(m, cap)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = _lse_grad_hess(points, mid.reshape(-1, 1))[0][:, 0]
            left = g < zs[:, 0]
            lo = np.where(left, mid, lo)
            hi = np.where(left, hi, mid)
        y = (0.5 * (lo + hi)).reshape(-1, 1)
    else:
        y = np.zeros_like(zs)
        for _ in range(120):
            g, H = _lse_grad_hess(points, y)
            r = zs - g
            Hd = H + 1e-13 * np.eye(l)
            step = np.linalg.solve(Hd, r[:, :, None])[:, :, 0]
            norms = np.linalg.norm(step, axis=1, keepdims=True)
            step = step * np.minimum(1.0, 5.0 / np.maximum(norms, 1e-300))
            y = y + step
            np.clip(y, -cap, cap, out=y)
    return np.einsum("ij,ij->i", y, zs) - _lse_value(points, y)


def initial_grid(fn: Functionals, level=None, window=None) -> ConvexDualGrid:
    """Default solver start: the reference potential u_P sampled on the grid."""
    A = fn.dual.lattice_array
    return grid_from_values(
        fn.dual,
        lambda zs: _lse_conjugate(A, zs),
        level=level,
        window=window,
    )


# ---------------------------------------------------------------------------
# Ding minimization
# ---------------------------------------------------------------------------


def _newton_direction_1d(z, grad, res, M):
    """Damped Newton direction from the exact Hessian of -log int exp(-u):
    breakpoint-flux Laplacian over the active nodes, minus diag of masses,
    plus the rank-one barycenter term.  The tridiagonal part is solved
    banded and the rank-one term by Sherman-Morrison, in O(K)."""
    act = res["active"]
    K = len(act)
    if K < 3:
        return -grad
    za = z[act]
    mhat = res["masses"][act] / M
    w = res["fluxes"] / (M * np.diff(za))
    g_act = grad[act]
    eps = 1e-12 + 1e-3 * float(np.abs(g_act).sum())
    ab = np.zeros((3, K))
    ab[0, 1:] = -w
    ab[1] = eps - mhat
    ab[1, :-1] += w
    ab[1, 1:] += w
    ab[2, :-1] = -w
    try:
        y, x = solve_banded((1, 1), ab, np.column_stack([-g_act, mhat])).T
    except np.linalg.LinAlgError:
        return -grad
    d_act = y - x * ((mhat @ y) / (1.0 + mhat @ x))
    if not np.all(np.isfinite(d_act)) or float(g_act @ d_act) >= 0:
        return -grad
    return np.interp(z, za, d_act)


def minimize_ding(
    fn: Functionals,
    init: ConvexDualGrid | None = None,
    *,
    level: int | None = None,
    window: float | None = None,
    tol_tv: float | None = None,
    max_iter: int | None = None,
    verdict_tol: float | None = None,
) -> MASolution:
    """Minimize D over grid-convex dual values; stop at Alexandrov residual
    ``tol_tv`` in total variation (1e-4 uniform, 1e-3 non-uniform defaults).

    Refuses unstable instances.  The returned potential is shifted so the
    unrescaled equation holds: int exp(-u) dy = |P*|_g.
    """
    from .functionals import BARYCENTER_TOL

    verdict = stability_verdict(
        fn.gstats, fn.profile, fn.field, fn.data, tol=verdict_tol or BARYCENTER_TOL
    )
    if not verdict.polystable:
        raise UnstableInputError(verdict)
    non_uniform = verdict.boundary_touching
    mode = "non_uniform" if non_uniform else "uniform"
    if tol_tv is None:
        tol_tv = DEFAULT_TOL_TV[mode]

    u = init if init is not None else initial_grid(fn, level=level, window=window)
    u = u.convexify()
    geom = u.geom
    V = fn.gstats.volume_g
    wg = fn.hat_weights(geom, "g")
    what = wg / float(np.sum(wg))

    if geom.dimension == 1:
        sol_values, it, tv, sup, converged = _minimize_1d(
            u, what, tol_tv, max_iter or 400
        )
    else:
        sol_values, it, tv, sup, converged = _minimize_2d(
            u, what, tol_tv, max_iter or 4000
        )
    u = u.with_values(sol_values)

    res = u.exp_integral(full=True)
    shift = res["log_total"] - math.log(V)
    D_val = float(wg @ u.values) / V - res["log_total"]
    u_norm = u.with_values(u.values - shift)

    cov = _coverage(u_norm)
    reg = _regularity_report(fn, u_norm, non_uniform)
    return MASolution(
        u=u_norm,
        ding_value=D_val,
        residual_tv=tv,
        residual_sup=sup,
        gradient_image_coverage=cov,
        shift=shift,
        iterations=it,
        converged=converged,
        mode=mode,
        regularity=reg,
    )


def _minimize_1d(u, what, tol_tv, max_iter):
    z = u.nodes[:, 0]
    v = u.values.copy()
    from scipy.optimize import isotonic_regression

    def project(vals):
        dz = np.diff(z)
        sl = isotonic_regression(np.diff(vals) / dz).x
        out = np.concatenate([[0.0], np.cumsum(sl * dz)]) + vals[0]
        return out + (vals.mean() - out.mean())

    def objective(vals):
        res = pl_exp_integral_1d(z, vals)
        M = float(np.sum(res["masses"]))  # scaled consistently with fluxes
        return float(what @ vals) - res["log_total"], res, M

    D, res, M = objective(v)
    tv = sup = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        mhat = res["masses"] / M
        grad = what - mhat
        tv = 0.5 * float(np.abs(grad).sum())
        sup = float(np.max(np.abs(grad)))
        if tv <= tol_tv:
            return v, it, tv, sup, True
        d = _newton_direction_1d(z, grad, res, M)
        accepted = False
        for direction in (d, -grad):
            lam = 1.0
            slope = float(grad @ direction)
            for _ in range(40):
                cand = project(v + lam * direction)
                D_new, res_new, M_new = objective(cand)
                if D_new <= D + 1e-4 * lam * slope or D_new < D - 1e-15:
                    v, D, res, M = cand, D_new, res_new, M_new
                    accepted = True
                    break
                lam *= 0.5
            if accepted:
                break
        if not accepted:
            break
    mhat = res["masses"] / M
    grad = what - mhat
    tv = 0.5 * float(np.abs(grad).sum())
    sup = float(np.max(np.abs(grad)))
    return v, it, tv, sup, tv <= tol_tv


def _minimize_2d(u, what, tol_tv, max_iter):
    """Projected gradient descent with Armijo backtracking on the exact
    objective: log int exp(-u) and the cell masses come from
    ``exp_cell_masses``, so the residual that stops the loop is the one
    returned."""

    def objective(g):
        log_total, masses, _ = g.exp_cell_masses()
        return float(what @ g.values) - log_total, masses / float(np.sum(masses))

    cur = u
    D, mhat = objective(cur)
    step = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        grad = what - mhat
        if 0.5 * float(np.abs(grad).sum()) <= tol_tv:
            break
        accepted = False
        for _ in range(40):
            cand = cur.with_values(cur.values - step * grad).convexify()
            D_c, m_c = objective(cand)
            if D_c <= D - 1e-4 * step * float(grad @ grad):
                cur, D, mhat = cand, D_c, m_c
                accepted = True
                step *= 1.4
                break
            step *= 0.5
        if not accepted:
            break
    grad = what - mhat
    tv = 0.5 * float(np.abs(grad).sum())
    sup = float(np.max(np.abs(grad)))
    return cur.values, it, tv, sup, tv <= tol_tv


def _coverage(u: ConvexDualGrid) -> float:
    """Fraction of P* covered by the subgradient image of the window."""
    act = u.active_nodes()
    if u.dimension == 1:
        z = u.nodes[:, 0]
        span = z[act].max() - z[act].min()
        full = z.max() - z.min()
        return float(span / full)
    from scipy.spatial import ConvexHull

    pts = u.nodes[act]
    if len(pts) < 3:
        return 0.0
    area = ConvexHull(pts).volume
    full = float(u.dual.volume_exact())
    return float(area / full)


def _regularity_report(fn: Functionals, u: ConvexDualGrid, non_uniform: bool) -> dict:
    dual = fn.dual
    l = dual.dimension
    alpha = fn.profile.alpha
    zero_vertices = []
    if math.isfinite(alpha):
        for i, kv in enumerate(fn.field.vertex_values):
            if abs(kv - alpha) <= 1e-12 * (1 + abs(alpha)):
                zero_vertices.append([float(x) for x in dual.vertices[i]])
    if not zero_vertices:
        dim = None
        criterion = True
        note = "g positive on P*: classical smooth regime"
    else:
        pts = np.array(zero_vertices)
        dim = int(np.linalg.matrix_rank(pts[1:] - pts[0])) if len(pts) > 1 else 0
        criterion = dim <= l / 2
        note = (
            f"g vanishes on a face of dimension {dim}; dimension criterion "
            + ("met: smooth solution expected" if criterion else "not met: weak solution only")
        )
    # empirical Hoelder moduli of u* on adjacent grid nodes, not a certificate
    holder = {}
    if l == 1:
        z = u.nodes[:, 0]
        dv = np.abs(np.diff(u.values))
        dz = np.diff(z)
        for gamma in (0.5, 0.75, 0.9):
            holder[str(gamma)] = float(np.max(dv / dz**gamma))
    return {
        "zero_set_vertices": zero_vertices,
        "zero_set_dim": dim,
        "dim_criterion_ok": bool(criterion),
        "note": note,
        "holder_moduli": holder,
        "mode": "non_uniform" if non_uniform else "uniform",
    }


# ---------------------------------------------------------------------------
# Alexandrov measure
# ---------------------------------------------------------------------------


def alexandrov_measure(u: ConvexDualGrid, fn: Functionals) -> AlexandrovMeasure:
    """MA_g(u) cell masses: (1/|P*|_g) of the g-mass of the subgradient image.

    1D: the subgradient of each primal window node is its slope interval,
    clipped to P*; 2D: each lower-hull facet of the dual data carries the
    g-mass of its triangle at the primal point where that facet is the
    subdifferential.  Both masses come from ``simplex_g_integrals``.
    """
    if not u.is_grid_convex(1e-7):
        raise ValueError("Alexandrov measure needs grid-convex dual values")
    V = fn.gstats.volume_g
    if u.dimension == 1:
        ys, vals = u.primal_grid()
        sl = np.diff(vals) / (ys[1, 0] - ys[0, 0])
        z0, z1 = float(fn.dual.vertex_array.min()), float(fn.dual.vertex_array.max())
        # slopes fall by rounding-size steps where u is affine: such a cell has
        # an empty subgradient image, not a reversed one
        edges = np.maximum.accumulate(np.concatenate([[z0], np.clip(sl, z0, z1), [z1]]))
        cells = np.column_stack([edges[:-1], edges[1:]])[:, :, None]
    else:
        _, simplices, ys, _ = u._lower_hull_2d()
        cells = u.nodes[simplices]
    masses = simplex_g_integrals(fn.data, fn.profile, fn.field, cells)
    return AlexandrovMeasure(points=ys.copy(), masses=masses / V)


# ---------------------------------------------------------------------------
# dual-side ODE residual (1D verification channel)
# ---------------------------------------------------------------------------


def ode_residual_1d(u: ConvexDualGrid, fn: Functionals, *, shell_fraction: float = 0.1) -> float:
    """sup |w'' - g e^{z w' - w}| over interior dual nodes, w = u*.

    Nodes within ``shell_fraction`` of the diameter from the boundary are
    excluded: u* has log-type derivative blowup at the boundary of P*, where
    centered differences cannot resolve w''.
    """
    if u.dimension != 1:
        raise ValueError("ODE residual is a 1D verification channel")
    z = u.nodes[:, 0]
    w = u.values
    h = z[1] - z[0]
    w1 = (w[2:] - w[:-2]) / (2 * h)
    w2 = (w[2:] - 2 * w[1:-1] + w[:-2]) / h**2
    zi = z[1:-1]
    g = g_values(fn.data, fn.profile, fn.field, zi.reshape(-1, 1))
    rhs = g * np.exp(zi * w1 - w[1:-1])
    diam = z[-1] - z[0]
    keep = np.minimum(zi - z[0], z[-1] - zi) >= shell_fraction * diam
    return float(np.max(np.abs(w2 - rhs)[keep]))


# ---------------------------------------------------------------------------
# subsolution of the non-uniform regime
# ---------------------------------------------------------------------------


def _half_lattice(dual) -> np.ndarray:
    """Points of P* with half-integer coordinates (includes the vertices)."""
    from itertools import product as iproduct

    V = dual.vertex_array
    l = V.shape[1]
    lo = np.floor(2 * V.min(axis=0)).astype(int)
    hi = np.ceil(2 * V.max(axis=0)).astype(int)
    N = dual.normal_array
    pts = []
    for a in iproduct(*[range(lo[k], hi[k] + 1) for k in range(l)]):
        z = np.asarray(a, dtype=float) / 2.0
        if np.all(N @ z <= 1.0 + 1e-12):
            pts.append(z)
    return np.array(sorted(pts, key=tuple))


def build_subsolution(
    fn: Functionals,
    *,
    window: float = 12.0,
    n_grid: int = 2001,
    level: int | None = None,
):
    """Smooth strictly convex subsolution u(y) = log sum over the half-lattice
    points a of P* of exp(<a, y>), with the smallest sampled C certifying
    C g(grad u) det(Hess u) >= exp(-u) on the window grid.

    The growth bound f(t) >= A0 (t - alpha) vanishes linearly at the face
    where k = alpha, so the exponent set must approach that face in steps of
    at most 1/2: with gap d the product k~(grad u) det(Hess u) e^{u} behaves
    like e^{(1-2d)|y|} toward the face, bounded below only for d <= 1/2.
    Vertex-only exponents (d = 1) admit no finite C.  Requires the growth
    bound when alpha is finite (checked on the working range of k, 10%
    inflated); with alpha = -inf the uniform positivity of exp(-sigma) on
    k(P*) plays that role.
    """
    profile, field, data = fn.profile, fn.field, fn.data
    growth = None
    if math.isfinite(profile.alpha):
        span = field.k_max - profile.alpha
        growth = check_growth(profile, t_max=profile.alpha + 1.1 * max(span, 1e-6))
        if not growth.holds:
            raise ValueError(
                "growth assumption unavailable: " + growth.detail
            )
    P = _half_lattice(fn.dual)
    l = P.shape[1]
    if l == 1:
        ys = np.linspace(-window, window, n_grid).reshape(-1, 1)
    else:
        n_side = int(math.isqrt(n_grid))
        ax = np.linspace(-window, window, n_side)
        Y1, Y2 = np.meshgrid(ax, ax, indexing="ij")
        ys = np.column_stack([Y1.ravel(), Y2.ravel()])
    uvals = _lse_value(P, ys)
    grad, hess = _lse_grad_hess(P, ys)
    det = np.linalg.det(hess) if l > 1 else hess[:, 0, 0]
    gvals = g_values(data, profile, field, grad)
    with np.errstate(divide="ignore"):
        log_ratio = -uvals - np.log(gvals) - np.log(det)
    if not np.all(np.isfinite(log_ratio)):
        raise ValueError("subsolution check hit a non-finite ratio")
    i = int(np.argmax(log_ratio))
    C = float(np.exp(log_ratio[i]))
    ktilde = (
        field.k_values(P) - profile.alpha if math.isfinite(profile.alpha) else None
    )
    report = {
        "C": C,
        "argmax_y": [float(x) for x in ys[i]],
        "growth": None if growth is None else {"A0": growth.a0, "detail": growth.detail},
        "mode": "non_uniform" if (growth is not None and fn.gstats.A == 0.0) else "uniform",
        "window": window,
        "n_exponents": int(P.shape[0]),
        # exponents on the vanishing face contribute zero weight to the
        # lemma's k~-weighted bound chain; the remaining ones still span
        "zero_weight_exponents": (
            [] if ktilde is None else [
                [float(x) for x in P[j]] for j in np.nonzero(np.abs(ktilde) <= 1e-12)[0]
            ]
        ),
    }
    u_sub = grid_from_values(
        fn.dual, lambda zs: _lse_conjugate(P, zs), level=level
    )
    return u_sub, C, report

"""Reduced real Monge-Ampere solver and weak-solution verification.

The equation g(grad u) det(Hess u) = exp(-u) is solved by minimizing the Ding
functional over dual grid values.  In nodal coordinates the gradient of D is
the mismatch of two probability vectors: the g-weighted hat masses of the
grid against the exp(-u) masses of the primal linearity cells, so the
stopping rule is exactly the Alexandrov residual in total variation.  Both
the log term and the cell masses are exact closed forms, in 1D and 2D, and
so is the Hessian of the log term: the Laplacian of the exp(-u) fluxes
through the cell boundaries, minus the diagonal of the masses, plus a
rank-one term (as in Kitagawa-Merigot-Thibert, JEMS 21, 2019).  One damped
Newton loop with that Hessian and Armijo backtracking serves both dimensions.

Verification channels: the Alexandrov measure of the solution (cell masses
against exp(-u)), the dual-side ODE residual w'' = g e^{z w' - w} in 1D, and
the subsolution construction of the non-uniform regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .convex import ConvexDualGrid, ExpCells, grid_from_values
from .functionals import (
    Functionals,
    Verdict,
    g_values,
    simplex_g_integrals,
    stability_verdict,
)
from .ksm import log_sum_exp
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
DEFAULT_MAX_ITER = 400


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


LSE_CLIP = 80.0  # |y_i| bound: a node on the boundary of P* has no maximizer
LSE_MAX_STEPS = 400  # guard only: the slowest rows, on the boundary of P*, take under 100


def _lse_grad_hess(points: np.ndarray, ys: np.ndarray):
    """log sum_a exp(<a, y>) per row y of ``ys``, its gradient and its
    Hessian: the softmax mean and covariance of the points a."""
    lse, W = log_sum_exp(points, ys)
    grad = W @ points
    m, l = points.shape
    pp = (points[:, :, None] * points[:, None, :]).reshape(m, l * l)
    hess = (W @ pp).reshape(-1, l, l) - grad[:, :, None] * grad[:, None, :]
    return lse, grad, hess


def _lse_conjugate(points: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """sup_y (<y, z> - log sum_a exp(<a, y>)) per row z of ``zs``, over
    |y_i| <= LSE_CLIP, by damped Newton from y = 0: the step H^{-1} r,
    r = z - grad, is cut to length 5 and then clipped to the box.

    A row stops once the gain r.dy of its step dy is at most eps |value|,
    the rounding of its value; only rows that have not stopped step again.
    Interior rows stop after 5-6 steps.  On the boundary of P* there is no
    maximizer: a row creeps outward until the receding terms fall below
    that rounding; at a vertex the value rounds to 0, and the row goes on
    until its gradient rounds to z or the clip stops it.  A row still going
    after LSE_MAX_STEPS raises RuntimeError.
    """
    y = np.zeros_like(zs)
    eye = np.eye(points.shape[1])
    todo = np.arange(len(zs))
    for _ in range(LSE_MAX_STEPS):
        yt, zt = y[todo], zs[todo]
        lse, grad, hess = _lse_grad_hess(points, yt)
        r = zt - grad
        # relative, so that boundary rows do not stall where the Hessian
        # vanishes; the floor keeps a Hessian that rounds to zero invertible
        reg = 1e-13 * np.trace(hess, axis1=1, axis2=2) + 1e-30
        dy = np.linalg.solve(hess + reg[:, None, None] * eye, r[:, :, None])[:, :, 0]
        norms = np.linalg.norm(dy, axis=1, keepdims=True)
        dy *= np.minimum(1.0, 5.0 / np.maximum(norms, 1e-300))
        y_new = np.clip(yt + dy, -LSE_CLIP, LSE_CLIP)
        y[todo] = y_new
        gain = np.einsum("ij,ij->i", r, y_new - yt)
        value = np.einsum("ij,ij->i", yt, zt) - lse
        todo = todo[gain > np.finfo(float).eps * np.abs(value)]
        if not todo.size:
            break
    else:
        raise RuntimeError(
            f"log-sum-exp conjugate: {todo.size} rows unconverged "
            f"after {LSE_MAX_STEPS} Newton steps"
        )
    return np.einsum("ij,ij->i", y, zs) - log_sum_exp(points, y)[0]


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


def _newton_direction(nodes: np.ndarray, grad: np.ndarray, cells: ExpCells):
    """Damped Newton direction from the exact Hessian of -log int exp(-u),
    in 1D and 2D alike: (L_w - diag m + eps I + m m^T) d = -grad on the hull
    nodes, with m the normalized cell masses and L_w the graph Laplacian of
    the edge fluxes.  In coordinate order L_w is banded (bandwidth 1 in 1D,
    about one grid column in 2D) and is solved as such; the rank-one term
    goes by Sherman-Morrison.  Nodes off the hull get the interpolant of d
    over their facet.  None when the solve fails or gives no descent."""
    act = cells.active[np.lexsort(nodes[cells.active].T[::-1])]
    K, M = len(act), float(np.sum(cells.masses))
    pos = np.empty(len(nodes), dtype=int)
    pos[act] = np.arange(K)
    i, j = pos[cells.edges].T
    w = cells.fluxes / M
    mhat = cells.masses[act] / M
    g_act = grad[act]
    bw = int(np.max(np.abs(i - j)))
    ab = np.zeros((2 * bw + 1, K))
    ab[bw + i - j, j] = -w
    ab[bw + j - i, i] = -w
    ab[bw] = np.bincount(i, w, K) + np.bincount(j, w, K) - mhat
    ab[bw] += 1e-12 + 1e-3 * float(np.abs(g_act).sum())
    try:
        y, x = solve_banded((bw, bw), ab, np.column_stack([-g_act, mhat])).T
    except np.linalg.LinAlgError:
        return None
    d_act = y - x * ((mhat @ y) / (1.0 + mhat @ x))
    if not np.all(np.isfinite(d_act)) or float(g_act @ d_act) >= 0:
        return None
    d = np.zeros(len(nodes))
    d[act] = d_act
    return cells.hull_interpolant(nodes, d)


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
    """Minimize D over grid-convex dual values by damped Newton with the
    exact edge-flux Hessian (1D and 2D alike); stop at Alexandrov residual
    ``tol_tv`` in total variation (1e-4 uniform, 1e-3 non-uniform defaults)
    or after ``max_iter`` iterations (``DEFAULT_MAX_ITER``).

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
    V = fn.gstats.volume_g
    wg = fn.hat_weights(u.geom, "g")
    n_iter = DEFAULT_MAX_ITER if max_iter is None else max_iter
    u, cells, it, tv, sup = _descend(u.convexify(), wg / float(np.sum(wg)), tol_tv, n_iter)
    shift = cells.log_total - math.log(V)
    D_val = float(wg @ u.values) / V - cells.log_total
    u_norm = u.with_values(u.values - shift)

    cov = _coverage(u_norm, cells.active)
    reg = _regularity_report(fn, u_norm, non_uniform)
    return MASolution(
        u=u_norm,
        ding_value=D_val,
        residual_tv=tv,
        residual_sup=sup,
        gradient_image_coverage=cov,
        shift=shift,
        iterations=it,
        converged=tv <= tol_tv,
        mode=mode,
        regularity=reg,
    )


def _descend(u: ConvexDualGrid, what: np.ndarray, tol_tv: float, max_iter: int):
    """Damped Newton on D(v) = <what, v> - log int exp(-u_v) over grid-convex
    v.  Each trial step is projected by ``convexify`` and accepted by Armijo
    backtracking, along the Newton direction first and -grad second.  The
    log term and the masses are exact (``exp_cells``), so the residual that
    stops the loop is the one returned.  The loop also stops when neither
    direction gives an acceptable step: at the rounding floor of the
    residual, or when the line search fails."""

    def objective(g):
        cells = g.exp_cells()
        grad = what - cells.masses / float(np.sum(cells.masses))
        return float(what @ g.values) - cells.log_total, grad, cells

    D, grad, cells = objective(u)
    it = 0
    for it in range(1, max_iter + 1):
        tv = 0.5 * float(np.abs(grad).sum())
        if tv <= tol_tv:
            break
        d = _newton_direction(u.nodes, grad, cells)
        accepted = False
        for direction in ([-grad] if d is None else [d, -grad]):
            lam = 1.0
            slope = float(grad @ direction)
            for _ in range(40):
                cand = u.with_values(u.values + lam * direction).convexify()
                D_new, grad_new, cells_new = objective(cand)
                # D cannot rank a decrease below its rounding; there the step
                # must halve the residual instead, and is not shortened further
                resolved = -lam * slope > 1e-15 * max(1.0, abs(D))
                if resolved:
                    accepted = D_new <= D + 1e-4 * lam * slope or D_new < D - 1e-15
                else:
                    tv_new = 0.5 * float(np.abs(grad_new).sum())
                    accepted = tv_new <= 0.5 * tv
                if accepted:
                    u, D, grad, cells = cand, D_new, grad_new, cells_new
                    break
                if not resolved:
                    break
                lam *= 0.5
            if accepted:
                break
        if not accepted:
            break
    tv = 0.5 * float(np.abs(grad).sum())
    return u, cells, it, tv, float(np.max(np.abs(grad)))


def _coverage(u: ConvexDualGrid, act: np.ndarray) -> float:
    """Fraction of P* covered by the subgradient image of the window; ``act``
    are the nodes on the lower hull."""
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
    uvals, grad, hess = _lse_grad_hess(P, ys)
    det = np.linalg.det(hess)
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

"""Discrete convex analysis on the dual polytope.

The central object is a convex function u on R^l represented by sampled
Legendre-dual values u* on a grid over P* (class ``ConvexDualGrid``).  The
primal function is recovered as u(y) = max over grid nodes z of
(<y, z> - u*(z)), a piecewise linear convex function, so the integral of
exp(-u) over R^l is a closed form: per segment in 1D, and in 2D per primal
cell (triangle fans of bounded cells, strips and vertex cones of the
unbounded ones; Lawrence, Math. Comp. 57, 1991).  These totals are exact over
all of R^l.

Grid values are the optimization variables of the Monge-Ampere solver.  The
lower hull of the points (z, u*) (``LowerHull``, one record in 1D and 2D)
serves the convexity projection and test, and, extended by the per-cell
exp(-u) masses and the fluxes of exp(-u) through the cell boundaries, one per
lower-hull edge (``ExpCells``), gives the exact gradient and Hessian data of
-log int exp(-u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull

from .polytope import DualPolytope

__all__ = [
    "PLConvex",
    "DualGridGeometry",
    "ConvexDualGrid",
    "LowerHull",
    "ExpCells",
    "WindowTooSmallError",
    "dual_grid_geometry",
    "grid_from_values",
    "pl_exp_integral_1d",
]

DEFAULT_LEVEL = {1: 9, 2: 6}
DEFAULT_WINDOW = {1: 40.0, 2: 20.0}
DEFAULT_STEP = {1: 0.02, 2: 0.25}


class WindowTooSmallError(RuntimeError):
    """The exp(-u) integral diverges: the slopes of u do not straddle 0."""


# ---------------------------------------------------------------------------
# piecewise linear convex functions on P*
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLConvex:
    """phi(z) = max_r (<a_r, z> + b_r) with rational coefficients.

    ``offset`` is the test-configuration constant R; it shifts geodesics but
    never Ding invariants.
    """

    pieces: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    offset: Fraction = Fraction(0)

    @staticmethod
    def make(pieces, offset=0) -> "PLConvex":
        ps = tuple(
            (tuple(Fraction(x) for x in a), Fraction(b)) for a, b in pieces
        )
        if not ps:
            raise ValueError("need at least one affine piece")
        dim = len(ps[0][0])
        if any(len(a) != dim for a, _ in ps):
            raise ValueError("pieces of mixed dimension")
        return PLConvex(ps, Fraction(offset))

    @property
    def dimension(self) -> int:
        return len(self.pieces[0][0])

    @property
    def slope_array(self) -> np.ndarray:
        return np.array([[float(x) for x in a] for a, _ in self.pieces])

    @property
    def intercept_array(self) -> np.ndarray:
        return np.array([float(b) for _, b in self.pieces])

    def __call__(self, z):
        zz = np.asarray(z, dtype=float)
        single = zz.ndim <= 1
        zs = np.atleast_2d(zz.reshape(1, -1) if single else zz)
        vals = np.max(zs @ self.slope_array.T + self.intercept_array, axis=1)
        return float(vals[0]) if single else vals

    def value_exact(self, z) -> Fraction:
        zf = tuple(Fraction(x) for x in z)
        return max(sum(a * x for a, x in zip(av, zf)) + b for av, b in self.pieces)

    def at_zero(self) -> float:
        return float(max(b for _, b in self.pieces))

    def kink_points_1d(self, lo: Fraction, hi: Fraction):
        """Exact subdivision of [lo, hi] into maximal intervals of linearity.

        Returns a sorted list of Fraction breakpoints including lo and hi.
        """
        if self.dimension != 1:
            raise ValueError("kink decomposition only in 1D")
        cuts = {Fraction(lo), Fraction(hi)}
        for i in range(len(self.pieces)):
            (ai,), bi = self.pieces[i]
            for j in range(i + 1, len(self.pieces)):
                (aj,), bj = self.pieces[j]
                if ai == aj:
                    continue
                x = (bj - bi) / (ai - aj)
                if lo < x < hi:
                    # keep only genuine kinks of the max
                    vx = self.value_exact((x,))
                    if vx == ai * x + bi:
                        cuts.add(x)
        return sorted(cuts)

    def to_json(self) -> dict:
        return {
            "pieces": [[[str(x) for x in a], str(b)] for a, b in self.pieces],
            "R": str(self.offset),
        }

    @staticmethod
    def from_json(obj) -> "PLConvex":
        return PLConvex.make(
            [(a, b) for a, b in obj["pieces"]], obj.get("R", 0)
        )


# ---------------------------------------------------------------------------
# dual grid geometry
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DualGridGeometry:
    """The uniformly refined origin-cone triangulation of P*, on exact nodes.

    Each simplex of ``dual.triangulation`` is split into k^l cells,
    k = 2^max(level - l, 0): 2^level cells over [-1, 1] in 1D (level 0 is
    level 1), an edge subdivision into 2^(level-2) parts in 2D.  The nodes
    are the integer rows ``numerators`` over ``denominator``, unique and in
    lexicographic coordinate order (sorted in 1D); the banded Newton solve
    of the Ding minimizer relies on that order.  ``cells`` lists the node
    indices of every cell; ``on_face[i, f]`` says exactly whether node i
    lies on the face <normal_array[f], z> = 1 of P*.
    """

    dual: DualPolytope
    level: int
    numerators: np.ndarray  # (m, l) int64
    denominator: int
    nodes: np.ndarray  # (m, l) float, numerators / denominator
    cells: np.ndarray  # (C, l + 1) node indices
    on_face: np.ndarray  # (m, F) bool
    vertex_node_indices: tuple[int, ...]  # grid index of each dual vertex
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dimension(self) -> int:
        return self.dual.dimension

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def _subdivision(l: int, k: int):
    """Edgewise subdivision of the standard l-simplex into k^l cells.

    Returns the barycentric integer weights (sum k) of its lattice points,
    (P, l + 1) in lexicographic order of the multi-indices a, and the cells
    as (k^l, l + 1) point indices: a + {0, e_1, .., e_l} for |a| <= k - 1
    and, in 2D, a + {e_1, e_1 + e_2, e_2} for |a| <= k - 2, the two kinds
    interleaved per a.
    """
    box = np.stack(np.meshgrid(*[np.arange(k + 1)] * l, indexing="ij"), axis=-1).reshape(-1, l)
    a = box[box.sum(axis=1) <= k]
    index = np.zeros((k + 1,) * l, dtype=np.int64)
    index[tuple(a.T)] = np.arange(len(a))
    shapes = [np.vstack([np.zeros(l, dtype=np.int64), np.eye(l, dtype=np.int64)])]
    if l == 2:
        shapes.append(np.array([[1, 0], [1, 1], [0, 1]]))
    corners = a[:, None, None, :] + np.stack(shapes)[None]  # (P, kinds, l + 1, l)
    corners = corners[a.sum(axis=1)[:, None] <= k - 1 - np.arange(len(shapes))]
    return np.column_stack([k - a.sum(axis=1), a]), index[tuple(np.moveaxis(corners, -1, 0))]


def dual_grid_geometry(dual: DualPolytope, level: int | None = None) -> DualGridGeometry:
    l = dual.dimension
    if l not in (1, 2):
        raise ValueError("dual grids implemented for l in {1, 2}")
    if level is None:
        level = DEFAULT_LEVEL[l]
    key = ("grid", level)
    if key in dual._cache:
        return dual._cache[key]

    k = 2 ** max(level - l, 0)
    pts = dual.tri_points  # vertices + origin
    lcm = math.lcm(*(x.denominator for p in pts for x in p))
    corners = np.array([[int(x * lcm) for x in p] for p in pts], dtype=np.int64)
    simplices = corners[np.array(dual.triangulation)]  # (S, l + 1, l)
    weights, local_cells = _subdivision(l, k)
    candidates = np.einsum("pb,sbd->spd", weights, simplices).reshape(-1, l)
    # the corners (times k) go last, so their inverse indices are the vertex nodes
    num, inv = np.unique(
        np.concatenate([candidates, k * corners]), axis=0, return_inverse=True
    )
    cells = inv[np.arange(len(simplices))[:, None, None] * len(weights) + local_cells]
    normals = np.array([n for n, _ in dual.half_spaces], dtype=np.int64)  # <n, z> <= 1
    den, n_cand = k * lcm, len(candidates)
    geom = DualGridGeometry(
        dual,
        level,
        num,
        den,
        num / den,
        cells.reshape(-1, l + 1),
        num @ normals.T == den,
        tuple(int(i) for i in inv[n_cand : n_cand + dual.n_vertices]),
    )
    dual._cache[key] = geom
    return geom


# ---------------------------------------------------------------------------
# exact 1D piecewise-linear exponential integrals
# ---------------------------------------------------------------------------


def _cross(a, b):
    """Row-wise 2D determinant det(a_k, b_k)."""
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def _exp_neg_dd1(a, b):
    """int_0^1 exp(-(a + s (b - a))) ds elementwise, i.e. minus the first
    divided difference of exp(-x); exact for coinciding a and b."""
    lo = np.minimum(a, b)
    d = np.abs(b - a)
    safe = np.where(d > 0, d, 1.0)
    return np.exp(-lo) * np.where(d > 0, -np.expm1(-safe) / safe, 1.0)


_DD2_TAYLOR_SPREAD = 0.5
_DD2_TAYLOR_TERMS = 16


def _exp_neg_dd2(a, b, c):
    """Second divided difference exp(-x)[a, b, c] elementwise.

    This is the integral of exp(-(l0 a + l1 b + l2 c)) over the unit simplex
    (Hermite-Genocchi), so a triangle T with vertex values a, b, c of an
    affine L carries int_T exp(-L) = 2|T| exp(-x)[a, b, c].  With the values
    sorted, lo <= lo + p <= lo + q, the divided-difference recursion
    (dd1(0, p) - dd1(p, q)) / q loses digits like 1/q as the spread q
    shrinks; below ``_DD2_TAYLOR_SPREAD`` the series
    sum_n (-1)^n h_n(0, p, q) / (n + 2)! is used instead (h_n the complete
    homogeneous polynomial), which also covers coinciding values.
    """
    x = np.sort(np.array([a, b, c], dtype=float), axis=0)
    lo, p, q = x[0], x[1] - x[0], x[2] - x[0]
    out = np.empty_like(lo)
    small = q < _DD2_TAYLOR_SPREAD
    if np.any(~small):
        pb, qb = p[~small], q[~small]
        out[~small] = (_exp_neg_dd1(0.0, pb) - _exp_neg_dd1(pb, qb)) / qb
    if np.any(small):
        ps, qs = p[small], q[small]
        h = np.ones_like(ps)
        p_pow = np.ones_like(ps)
        term_scale = 0.5
        acc = 0.5 * h
        for n in range(1, _DD2_TAYLOR_TERMS):
            p_pow = p_pow * ps
            h = qs * h + p_pow
            term_scale /= -(n + 2)
            acc = acc + term_scale * h
        out[small] = acc
    return np.exp(-lo) * out


def _upper_envelope(s, q):
    """Upper envelope of the lines y -> s[i] y - q[i], s strictly increasing:
    the indices of the lines on it, in slope order, and the breakpoints
    between consecutive ones."""
    x = np.diff(q) / np.diff(s)
    if np.all(x[1:] > x[:-1]):
        # strictly increasing successive breakpoints: every line is active,
        # and these are the breakpoints the stack below would return
        return np.arange(len(s)), x
    # monotone stack over slopes, on Python floats
    s, q = s.tolist(), q.tolist()
    act: list[int] = []
    bps: list[float] = []
    for i in range(len(s)):
        while act:
            j = act[-1]
            x = (q[i] - q[j]) / (s[i] - s[j])
            if bps and x <= bps[-1]:
                act.pop()
                bps.pop()
            else:
                bps.append(x)
                break
        act.append(i)
    return np.array(act), np.array(bps, dtype=float)


def _envelope_masses(sa, qa, b):
    """exp(-u) masses of the cells of u(y) = max_i (sa[i] y - qa[i]), given
    the lines active on it in slope order and the breakpoints b between
    them: returns (masses, fluxes, log_total, s0).  Masses and the
    breakpoint values exp(-u(b)) (fluxes) are scaled by exp(s0), s0 = min u,
    so that arbitrarily shifted data (long geodesics) never under/overflows.
    Diverges unless sa[0] < 0 < sa[-1]."""
    if sa[0] >= 0 or sa[-1] <= 0:
        raise WindowTooSmallError(
            "exp integral diverges: active slopes do not straddle zero"
        )
    # u at breakpoints (value of the active line on each side, equal there)
    ub = sa[:-1] * b - qa[:-1]
    s0 = float(np.min(ub))
    qs = qa + s0  # intercepts of the shifted function u - s0

    masses = np.zeros(len(sa))
    masses[0] = np.exp(-(ub[0] - s0)) / (-sa[0])
    masses[-1] = np.exp(-(ub[-1] - s0)) / sa[-1]
    if len(sa) > 2:
        uL = sa[1:-1] * b[:-1] - qs[1:-1]
        uR = sa[1:-1] * b[1:] - qs[1:-1]
        masses[1:-1] = np.diff(b) * _exp_neg_dd1(uL, uR)
    log_total = float(np.log(float(np.sum(masses))) - s0)
    return masses, np.exp(-(ub - s0)), log_total, s0


def pl_exp_integral_1d(slopes, intercepts):
    """Integral of exp(-max_j(slopes[j] * y - intercepts[j])) over R.

    The lines' upper envelope is built exactly (slope order); returns a dict
    with the total, its always-finite ``log_total``, per-line cell masses
    (zero for inactive lines), breakpoints, active line indices and
    breakpoint fluxes.  Masses and fluxes carry a common scale
    exp(``mass_log_scale``) (see ``_envelope_masses``); normalized masses
    are exact.  Diverges unless min slope < 0 < max slope.
    """
    s = np.asarray(slopes, dtype=float)
    q = np.asarray(intercepts, dtype=float)
    order = np.lexsort((q, s))
    s_o, q_o = s[order], q[order]
    # among equal slopes only the line with the smallest intercept survives
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s_o[1:] != s_o[:-1]
    pos = order[keep]
    s_o, q_o = s_o[keep], q_o[keep]

    act, b = _upper_envelope(s_o, q_o)
    masses_active, fluxes, log_total, s0 = _envelope_masses(s_o[act], q_o[act], b)
    masses = np.zeros(len(s))
    masses[pos[act]] = masses_active
    with np.errstate(over="ignore", under="ignore"):
        total = float(np.exp(log_total))
    return {
        "total": total,
        "log_total": log_total,
        # sum(masses) * exp(-mass_log_scale) = total
        "masses": masses,
        "mass_log_scale": s0,
        "breakpoints": b,
        "active": pos[act],
        "fluxes": fluxes,
    }


@dataclass(frozen=True)
class LowerHull:
    """The lower hull of the points (z, u*) of a dual grid, in 1D and 2D.

    Each facet T (a segment in 1D, a triangle in 2D) is the graph of
    z -> <y_T, z> - u(y_T) over its simplex, so its gradient y_T is the
    primal vertex where the facet's nodes tie.
    """

    active: np.ndarray  # sorted indices of the nodes on the hull
    facets: np.ndarray  # (F, l + 1) node indices
    ys: np.ndarray  # (F, l) facet gradients y_T
    us: np.ndarray  # (F,) u(y_T)

    def hull_interpolant(self, nodes: np.ndarray, d: np.ndarray) -> np.ndarray:
        """d with its entries off the hull nodes replaced by the linear
        interpolant over the facet each node lies on, argmax_T <y_T, z> - u(y_T)."""
        out = np.array(d, dtype=float)
        on_hull = np.zeros(len(nodes), dtype=bool)
        on_hull[self.active] = True
        off = np.flatnonzero(~on_hull)
        chunk = max(1, 4_000_000 // len(self.us))
        for k in range(0, len(off), chunk):
            idx = off[k : k + chunk]
            corners = self.facets[np.argmax(nodes[idx] @ self.ys.T - self.us, axis=1)]
            base = nodes[corners[:, 0]]
            span = nodes[corners[:, 1:]] - base[:, None, :]  # (n, l, l), rows are edges
            lam = np.linalg.solve(np.swapaxes(span, 1, 2), (nodes[idx] - base)[:, :, None])[:, :, 0]
            d0 = out[corners[:, 0]]
            out[idx] = d0 + np.sum(lam * (out[corners[:, 1:]] - d0[:, None]), axis=1)
        return out


@dataclass(frozen=True)
class ExpCells(LowerHull):
    """Exact exp(-u) data of a dual grid, the same record in 1D and 2D.

    The primal cells of u are indexed by the grid nodes and the primal
    vertices are the facet gradients y_T of the lower hull; hull edges (i, j)
    join the nodes whose cells share a boundary piece.  ``fluxes`` holds, per
    hull edge, the integral of exp(-u) over that piece divided by
    |z_i - z_j|: a breakpoint value in 1D, a segment or ray integral in 2D.
    Masses and fluxes carry a common scale: sum(masses) is proportional to
    exp(log_total).
    """

    log_total: float
    masses: np.ndarray  # (m,), zero off the hull
    edges: np.ndarray  # (E, 2) node pairs
    fluxes: np.ndarray  # (E,)


# ---------------------------------------------------------------------------
# the dual-grid convex function
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ConvexDualGrid:
    """Convex u on R^l given by dual values u* on a grid over P*."""

    geom: DualGridGeometry
    values: np.ndarray

    @property
    def dual(self) -> DualPolytope:
        return self.geom.dual

    @property
    def dimension(self) -> int:
        return self.geom.dimension

    @property
    def nodes(self) -> np.ndarray:
        return self.geom.nodes

    def with_values(self, values) -> "ConvexDualGrid":
        return ConvexDualGrid(self.geom, np.asarray(values, dtype=float).copy())

    def shifted(self, c: float) -> "ConvexDualGrid":
        """Add the constant c to u (subtract it from every dual value)."""
        return self.with_values(self.values - c)

    # -- convexity ---------------------------------------------------------

    def is_grid_convex(self, tol: float = 1e-9) -> bool:
        """Every node lies on the lower hull of (z, u*), to ``tol`` times
        1 + max |u*|."""
        scale = 1.0 + float(np.max(np.abs(self.values)))
        env = self.lower_hull().hull_interpolant(self.nodes, self.values)
        return bool(np.all(self.values - env <= tol * scale))

    def convexify(self) -> "ConvexDualGrid":
        """Project the dual values onto grid-convex ones: the nodes above the
        lower hull of (z, u*) are lowered onto it."""
        hull = self.lower_hull()
        env = hull.hull_interpolant(self.nodes, self.values)
        out = self.with_values(np.minimum(self.values, env))
        # lowering the nodes above the hull onto it keeps the hull surface
        out._store_hull(hull)
        return out

    # -- conjugation -------------------------------------------------------

    def lower_hull(self) -> LowerHull:
        """The lower hull of the points (z, u*), cached by value bytes: the
        upper envelope of the lines y -> z y - u* in 1D (the nodes are sorted
        and unique), Qhull in 2D."""
        cached = self.geom._cache.setdefault("hulls", {}).get(self.values.tobytes())
        if cached is not None:
            return cached
        if self.dimension == 1:
            z = self.nodes[:, 0]
            act, b = _upper_envelope(z, self.values)
            facets, ys = np.column_stack([act[:-1], act[1:]]), b[:, None]
        else:
            pts = np.column_stack([self.nodes, self.values])
            # an apex far above keeps Qhull non-degenerate for affine value sets
            apex = np.append(
                self.nodes.mean(axis=0),
                self.values.max() + 10.0 * (np.ptp(self.values) + 1.0),
            )
            qh = ConvexHull(np.vstack([pts, apex]))
            m = self.geom.n_nodes
            lower = (qh.equations[:, 2] < -1e-12) & ~np.any(qh.simplices == m, axis=1)
            facets = qh.simplices[lower]
            eq = qh.equations[lower]
            ys = -eq[:, :2] / eq[:, 2:3]
            act = np.unique(facets)
        i0 = facets[:, 0]
        us = np.einsum("ij,ij->i", ys, self.nodes[i0]) - self.values[i0]
        out = LowerHull(act, facets, ys, us)
        self._store_hull(out)
        return out

    def _store_hull(self, hull) -> None:
        cache = self.geom._cache.setdefault("hulls", {})
        if len(cache) > 8:
            cache.clear()
        cache[self.values.tobytes()] = hull

    def primal_value(self, y) -> float | np.ndarray:
        """u(y) = max over grid nodes of <y, z> - u*(z).

        1D reads the active line at y off the envelope's breakpoints, and
        takes the max with its two neighbours, which tie with it within
        rounding near a breakpoint; 2D takes the max over the hull nodes.
        """
        yy = np.asarray(y, dtype=float)
        single = yy.ndim <= 1
        ys = np.atleast_2d(yy.reshape(1, -1) if single else yy)
        cells = self.exp_cells()
        act = cells.active
        if self.dimension == 1:
            k = np.searchsorted(cells.ys[:, 0], ys[:, 0])
            near = act[np.clip(k[:, None] + np.arange(-1, 2), 0, len(act) - 1)]
            out = np.max(ys * self.nodes[near, 0] - self.values[near], axis=1)
            return float(out[0]) if single else out
        Z, V = self.nodes[act], self.values[act]
        out = np.empty(ys.shape[0])
        chunk = max(1, int(4_000_000 / max(len(V), 1)))
        for i in range(0, ys.shape[0], chunk):
            out[i : i + chunk] = np.max(ys[i : i + chunk] @ Z.T - V, axis=1)
        return float(out[0]) if single else out

    def primal_grid(self, window: float | None = None):
        """(y_grid, u values) on the lattice of spacing ``DEFAULT_STEP`` over
        the plot range [-window, window]^l (``DEFAULT_WINDOW``)."""
        window = DEFAULT_WINDOW[self.dimension] if window is None else float(window)
        n = int(round(window / DEFAULT_STEP[self.dimension]))
        axis = np.linspace(-window, window, 2 * n + 1)
        if self.dimension == 1:
            return axis.reshape(-1, 1), self.primal_value(axis.reshape(-1, 1))
        Y1, Y2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([Y1.ravel(), Y2.ravel()])
        return pts, self.primal_value(pts)

    # -- exp(-u) integrals --------------------------------------------------

    def exp_integral(self, *, full: bool = False) -> dict:
        """Integral of exp(-u) over all of R^l: the exact ``total``, its
        always-finite ``log_total`` and the per-node cell ``masses`` of
        ``exp_cells``, proportional to the true exp(-u) cell masses.

        ``full`` has no effect: the total is exact, so there is no window
        check to skip.  It stays for callers that pass it.
        """
        cells = self.exp_cells()
        with np.errstate(over="ignore", under="ignore"):
            total = float(np.exp(cells.log_total))
        return {"total": total, "log_total": cells.log_total, "masses": cells.masses}

    def exp_cells(self) -> ExpCells:
        """Exact log int exp(-u), the exp(-u) mass of every primal cell and
        the flux of every lower-hull edge (``ExpCells``).

        1D: the segment masses and breakpoint values of ``_envelope_masses``
        on the lower hull.  2D: u is the max of the affine pieces
        L_i(y) = <y, z_i> - u*_i, and the cell of node i is a polygon with the
        lower-hull gradients y_T as vertices, unbounded along the normal cone
        of P* at z_i (Lawrence's vertex-cone decomposition).  Per hull edge
        (i, j) shared by facets T and T', the segment [y_T, y_T'] separates
        the cells of i and j and carries |y_T' - y_T| int_0^1 exp(-L_i);

        * an interior node i gets the triangle (c_i, y_T, y_T'), c_i the mean
          of its y_T, carrying |det| * exp(-x)[L(c_i), u(y_T), u(y_T')];
        * a node on the P* edge <b, z> = 1 gets the flux of exp(-L_i) b
          through the segment, |det(y_T' - y_T, b)| int_0^1 exp(-L_i).  On
          the cell L_i rises along b with slope <b, z_i> = 1, so the strip
          swept along b carries exactly this mass.

        A hull edge on the P* edge with normal b separates its cells by the
        ray y_T + t b, which carries |b| exp(-u(y_T)); at a P* vertex node
        the ray of the other edge b' adds the cone |det(b', b)| exp(-u(y_T)).
        Exponents are shifted by the scale s0 = min u(y_T) = min u.
        """
        hull = self.lower_hull()
        if self.dimension == 1:
            z, act = self.nodes[:, 0], hull.active
            masses_act, fluxes, log_total, _ = _envelope_masses(
                z[act], self.values[act], hull.ys[:, 0]
            )
            masses = np.zeros(len(z))
            masses[act] = masses_act
            return ExpCells(
                act, hull.facets, hull.ys, hull.us, log_total, masses, hull.facets,
                fluxes / np.diff(z[act]),
            )
        act, simplices, ys, us = hull.active, hull.facets, hull.ys, hull.us
        on_face, normals = self.geom.on_face, self.dual.normal_array
        m = self.geom.n_nodes
        s0 = float(np.min(us))
        w = us - s0
        boundary = on_face.any(axis=1)
        b = normals[np.argmax(on_face, axis=1)] * boundary[:, None]

        # hull edges sorted by endpoint pair: pairs shared by two facets are
        # segments between two cells, single ones lie on the boundary of P*
        edges = np.sort(
            np.concatenate([simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [2, 0]]]),
            axis=1,
        )
        facet = np.tile(np.arange(len(simplices)), 3)
        key = edges[:, 0] * m + edges[:, 1]
        order = np.argsort(key, kind="stable")
        key, edges, facet = key[order], edges[order], facet[order]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        count = np.diff(np.r_[first, len(key)])
        inner, outer = first[count == 2], first[count == 1]
        shared_face = on_face[edges[outer, 0]] & on_face[edges[outer, 1]]
        if np.any(count > 2) or not np.all(shared_face.any(axis=1)):
            raise RuntimeError("lower hull is not a triangulation of P*")

        # each shared hull edge is the segment [y_T, y_T'] in the boundary
        # of the cells of both its endpoints
        T, T2 = facet[inner], facet[inner + 1]
        seg = ys[T2] - ys[T]
        seg_mean = _exp_neg_dd1(w[T], w[T2])
        node = edges[inner].T.ravel()
        t, t2 = np.tile(T, 2), np.tile(T2, 2)
        A, B = ys[t], ys[t2]
        incident = simplices.ravel()
        cnt = np.maximum(np.bincount(incident, minlength=m), 1)
        centre = np.column_stack(
            [np.bincount(incident, np.repeat(ys[:, k], 3), minlength=m) / cnt for k in range(2)]
        )[node]
        w_centre = (np.bincount(incident, np.repeat(w, 3), minlength=m) / cnt)[node]
        fan = np.abs(_cross(A - centre, B - centre)) * _exp_neg_dd2(w_centre, w[t], w[t2])
        strip = np.abs(_cross(B - A, b[node])) * np.tile(seg_mean, 2)
        cells = np.bincount(node, np.where(boundary[node], strip, fan), minlength=m)

        # each boundary hull edge is a ray along its P* edge normal
        ray = normals[np.argmax(shared_face, axis=1)]
        ray_mass = np.exp(-w[facet[outer]])
        ends = edges[outer].T.ravel()
        cone = np.abs(_cross(np.tile(ray, (2, 1)), b[ends])) * np.tile(ray_mass, 2)
        masses = cells + np.bincount(ends, cone, minlength=m)

        pairs = np.concatenate([edges[inner], edges[outer]])
        flux = np.concatenate(
            [np.linalg.norm(seg, axis=1) * seg_mean, np.linalg.norm(ray, axis=1) * ray_mass]
        ) / np.linalg.norm(self.nodes[pairs[:, 0]] - self.nodes[pairs[:, 1]], axis=1)
        log_total = math.log(float(np.sum(masses))) - s0
        return ExpCells(act, simplices, ys, us, log_total, masses, pairs, flux)

    # -- dual-side utilities -------------------------------------------------

    def interpolate(self, z) -> float:
        """Value of the PL grid function u* at a point z of P*."""
        zz = np.atleast_1d(np.asarray(z, dtype=float))
        if self.dimension == 1:
            return float(np.interp(zz[0], self.nodes[:, 0], self.values))
        for (i, j, k) in self.geom.cells:
            A = np.column_stack([self.nodes[j] - self.nodes[i], self.nodes[k] - self.nodes[i]])
            try:
                lam = np.linalg.solve(A, zz - self.nodes[i])
            except np.linalg.LinAlgError:
                continue
            l1, l2 = lam
            l0 = 1.0 - l1 - l2
            if min(l0, l1, l2) >= -1e-10:
                return float(l0 * self.values[i] + l1 * self.values[j] + l2 * self.values[k])
        raise ValueError(f"point {z} not inside the dual grid")


def grid_from_values(
    dual: DualPolytope,
    values,
    *,
    level: int | None = None,
) -> ConvexDualGrid:
    """Build a ConvexDualGrid from nodal values or a callable on nodes."""
    geom = dual_grid_geometry(dual, level)
    if callable(values):
        vals = np.asarray(values(geom.nodes), dtype=float)
    else:
        vals = np.asarray(values, dtype=float)
    if vals.shape != (geom.n_nodes,):
        raise ValueError(f"expected {geom.n_nodes} nodal values, got {vals.shape}")
    return ConvexDualGrid(geom, vals)


def support_grid(dual: DualPolytope, **kw) -> ConvexDualGrid:
    """The grid with u* = 0, i.e. u = v_{P*} (useful for N0 identities)."""
    return grid_from_values(dual, lambda zs: np.zeros(zs.shape[0]), **kw)

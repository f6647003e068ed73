"""Exact-rational Fano polytope geometry and quadrature over dual polytopes.

A Fano polytope is an integral simplicial polytope with the origin in its
interior whose facet vertex sets are unimodular lattice bases.  All
combinatorics here (hulls, duals, determinants, lattice points) run in exact
rational arithmetic so that the four defining conditions are never
misclassified by roundoff; floating point enters only inside quadrature.

Dimensions: combinatorics up to l = 3, numerical integration for l in {1, 2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product as _iproduct
from math import ceil, floor

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "PolytopeError",
    "UnsupportedDimensionError",
    "QuadratureError",
    "FanoValidationError",
    "FanoViolation",
    "FanoPolytope",
    "DualPolytope",
    "QuadratureRule",
    "check_fano",
    "validate_fano",
    "dual_polytope",
    "support_function",
    "integrate",
    "integrate_monomial_exact",
    "integrate_polynomial_exact",
]

Vector = tuple[Fraction, ...]


class PolytopeError(ValueError):
    """Invalid input to a polytope operation."""


class UnsupportedDimensionError(PolytopeError):
    """Requested operation is not available in this dimension."""


class QuadratureError(RuntimeError):
    """Numerical integration failed (bad value or no convergence)."""


@dataclass(frozen=True)
class FanoViolation:
    """One violated Fano condition with the offending vertex or facet."""

    condition: str  # "integral" | "vertex" | "interior" | "simplicial" | "unimodular"
    where: tuple
    detail: str


class FanoValidationError(PolytopeError):
    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.detail for v in self.violations)
        super().__init__(f"not a Fano polytope: {lines}")


# ---------------------------------------------------------------------------
# exact linear algebra on small matrices
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _frac_point(p) -> Vector:
    return tuple(_frac(x) for x in p)


def _det(rows) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
    raise UnsupportedDimensionError(f"determinant for n={n} not supported")


def _rank(rows) -> int:
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / prow[col]
                mat[r] = [a - f * b for a, b in zip(mat[r], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _solve(rows, rhs) -> Vector | None:
    """Solve the square rational system rows @ x = rhs (Cramer), or None."""
    n = len(rows)
    d = _det(rows)
    if d == 0:
        return None
    sol = []
    for j in range(n):
        cols = [tuple(rhs[i] if k == j else rows[i][k] for k in range(n)) for i in range(n)]
        sol.append(_det(cols) / d)
    return tuple(sol)


def _normal_through(points) -> Vector | None:
    """Normal of the hyperplane through l points in R^l (zero -> degenerate)."""
    l = len(points[0])
    if l == 1:
        return (Fraction(1),)
    if l == 2:
        d = tuple(points[1][k] - points[0][k] for k in range(2))
        n = (-d[1], d[0])
    else:
        d1 = tuple(points[1][k] - points[0][k] for k in range(3))
        d2 = tuple(points[2][k] - points[0][k] for k in range(3))
        n = (
            d1[1] * d2[2] - d1[2] * d2[1],
            d1[2] * d2[0] - d1[0] * d2[2],
            d1[0] * d2[1] - d1[1] * d2[0],
        )
    if all(x == 0 for x in n):
        return None
    return n


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive_key(normal, offset):
    """Scale (normal, offset) to a canonical integer form for deduplication."""
    dens = [x.denominator for x in normal] + [offset.denominator]
    scale = Fraction(int(np.lcm.reduce([int(d) for d in dens])))
    ints = [int(x * scale) for x in normal] + [int(offset * scale)]
    g = int(np.gcd.reduce([abs(v) for v in ints if v != 0] or [1]))
    return tuple(v // g for v in ints)


def _hull_facets(points):
    """Enumerate facets of conv(points) exactly.

    Returns a list of (outward_normal, offset, incident_index_frozenset) with
    <normal, x> <= offset on the hull.  Brute force over l-subsets; fine for
    the small vertex sets (l <= 3) this library handles.
    """
    l = len(points[0])
    m = len(points)
    seen = {}
    for subset in combinations(range(m), l):
        n = _normal_through([points[i] for i in subset])
        if n is None:
            continue
        c = _dot(n, points[subset[0]])
        vals = [_dot(n, p) - c for p in points]
        if all(v <= 0 for v in vals):
            pass
        elif all(v >= 0 for v in vals):
            n = tuple(-x for x in n)
            c = -c
            vals = [-v for v in vals]
        else:
            continue
        incident = frozenset(i for i, v in enumerate(vals) if v == 0)
        seen[_primitive_key(n, c)] = (n, c, incident)
    return sorted(seen.values(), key=lambda t: sorted(t[2]))


# ---------------------------------------------------------------------------
# Fano polytopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FanoPolytope:
    """Integral simplicial polytope P with unimodular facet bases.

    vertices are integer points; facets are tuples of vertex indices, each of
    length ``dimension``.
    """

    dimension: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[int, ...], ...]

    @property
    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def facet_matrix(self, facet) -> list[Vector]:
        return [_frac_point(self.vertices[i]) for i in facet]

    def dual(self) -> "DualPolytope":
        return dual_polytope(self)

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "vertices": [list(v) for v in self.vertices]}

    @staticmethod
    def from_json(obj) -> "FanoPolytope":
        return validate_fano(obj["vertices"])


def check_fano(vertices) -> tuple[FanoPolytope | None, list[FanoViolation]]:
    """Check the four Fano conditions; return (polytope-or-None, violations).

    Raises PolytopeError for malformed input (empty, duplicates, not
    full-dimensional) as opposed to condition violations.
    """
    pts_raw = [tuple(p) if isinstance(p, (list, tuple)) else (p,) for p in vertices]
    if not pts_raw:
        raise PolytopeError("empty vertex list")
    l = len(pts_raw[0])
    if not 1 <= l <= 3:
        raise UnsupportedDimensionError(f"dimension {l} not supported (need 1 <= l <= 3)")
    if any(len(p) != l for p in pts_raw):
        raise PolytopeError("vertices of mixed dimension")
    if len(set(pts_raw)) != len(pts_raw):
        raise PolytopeError("duplicate vertices")

    violations: list[FanoViolation] = []
    int_pts = []
    for p in pts_raw:
        ok = all(_frac(x).denominator == 1 for x in p)
        if not ok:
            violations.append(
                FanoViolation("integral", p, f"vertex {p} has non-integer coordinates")
            )
        int_pts.append(_frac_point(p))

    if _rank([tuple(q[k] - int_pts[0][k] for k in range(l)) for q in int_pts[1:]]) < l:
        raise PolytopeError("vertices are not full-dimensional")

    facets = _hull_facets(int_pts)

    # extreme points: active facet normals span R^l
    active = {i: [] for i in range(len(int_pts))}
    for n, c, inc in facets:
        for i in inc:
            active[i].append(n)
    extreme = set()
    for i, normals in active.items():
        if normals and _rank(normals) == l:
            extreme.add(i)
        else:
            violations.append(
                FanoViolation("vertex", pts_raw[i], f"point {pts_raw[i]} is not a vertex of the hull")
            )

    # (ii) origin strictly interior: every facet offset positive
    for n, c, inc in facets:
        if c <= 0:
            violations.append(
                FanoViolation(
                    "interior",
                    tuple(sorted(inc)),
                    "origin is not strictly inside (facet through "
                    f"{[pts_raw[i] for i in sorted(inc)]})",
                )
            )

    # (iii) simplicial with exactly l vertices per facet, (iv) unimodular
    facet_tuples = []
    for n, c, inc in facets:
        fverts = tuple(sorted(i for i in inc if i in extreme))
        facet_tuples.append(fverts)
        if len(fverts) != l:
            violations.append(
                FanoViolation(
                    "simplicial",
                    fverts,
                    f"facet {[pts_raw[i] for i in fverts]} has {len(fverts)} vertices, expected {l}",
                )
            )
            continue
        d = _det([int_pts[i] for i in fverts])
        if abs(d) != 1:
            violations.append(
                FanoViolation(
                    "unimodular",
                    fverts,
                    f"facet {[pts_raw[i] for i in fverts]} has determinant {d}, expected +-1",
                )
            )

    if violations:
        return None, violations
    poly = FanoPolytope(
        dimension=l,
        vertices=tuple(tuple(int(x) for x in p) for p in int_pts),
        facets=tuple(sorted(facet_tuples)),
    )
    return poly, []


def validate_fano(vertices) -> FanoPolytope:
    """validate_fano raising FanoValidationError with the full violation list."""
    poly, violations = check_fano(vertices)
    if violations:
        raise FanoValidationError(violations)
    return poly


# ---------------------------------------------------------------------------
# dual polytopes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DualPolytope:
    """Dual polytope P* = {z : <z,y> <= 1 for all y in P}.

    vertices are rational (integral for valid Fano P), one per facet of P.
    half_spaces carry one (normal, 1) pair per vertex of P.  The triangulation
    cones the origin over the facets of P* (l <= 2); simplices index into
    ``tri_points`` = vertices + (origin,).
    """

    dimension: int
    vertices: tuple[Vector, ...]
    half_spaces: tuple[tuple[tuple[int, ...], int], ...]
    lattice_points: tuple[tuple[int, ...], ...]
    triangulation: tuple[tuple[int, ...], ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def tri_points(self) -> tuple[Vector, ...]:
        origin = tuple(Fraction(0) for _ in range(self.dimension))
        return self.vertices + (origin,)

    @property
    def vertex_array(self) -> np.ndarray:
        if "varr" not in self._cache:
            self._cache["varr"] = np.array([[float(x) for x in v] for v in self.vertices])
        return self._cache["varr"]

    @property
    def lattice_array(self) -> np.ndarray:
        if "larr" not in self._cache:
            self._cache["larr"] = np.asarray(self.lattice_points, dtype=float)
        return self._cache["larr"]

    @property
    def normal_array(self) -> np.ndarray:
        if "narr" not in self._cache:
            self._cache["narr"] = np.array([list(n) for n, _ in self.half_spaces], dtype=float)
        return self._cache["narr"]

    def simplex_coords(self) -> list[np.ndarray]:
        """Float coordinates of the triangulation simplices, deterministic order."""
        if "simp" not in self._cache:
            pts = [[float(x) for x in p] for p in self.tri_points]
            self._cache["simp"] = [
                np.array([pts[i] for i in s]) for s in self.triangulation
            ]
        return self._cache["simp"]

    def contains(self, z, tol: float = 1e-12) -> bool:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return bool(np.all(self.normal_array @ z <= 1.0 + tol))

    def volume_exact(self) -> Fraction:
        return integrate_monomial_exact(self, (0,) * self.dimension)


@lru_cache(maxsize=None)
def dual_polytope(poly: FanoPolytope) -> DualPolytope:
    """Dualize a valid Fano polytope with exact rational vertex enumeration."""
    l = poly.dimension
    fverts = [poly.facet_matrix(f) for f in poly.facets]
    dual_vertices = []
    for B in fverts:
        z = _solve(B, [Fraction(1)] * l)
        if z is None:
            raise PolytopeError("degenerate facet in dual computation")
        dual_vertices.append(z)

    half_spaces = tuple((tuple(int(x) for x in v), 1) for v in poly.vertices)

    # lattice points by bounding-box scan against <z, b> <= 1 for vertices b of P
    lo = [floor(min(v[k] for v in dual_vertices)) for k in range(l)]
    hi = [ceil(max(v[k] for v in dual_vertices)) for k in range(l)]
    lattice = []
    for z in _iproduct(*[range(lo[k], hi[k] + 1) for k in range(l)]):
        if all(_dot(z, b) <= 1 for b in poly.vertices):
            lattice.append(tuple(z))
    lattice.sort()

    # triangulation: cone origin over facets of P*; facets of P* <-> vertices of P
    origin_idx = len(dual_vertices)
    tri = []
    if l == 1:
        for i in range(len(dual_vertices)):
            tri.append((i, origin_idx))
    elif l == 2:
        for vi in range(len(poly.vertices)):
            inc = [fi for fi, f in enumerate(poly.facets) if vi in f]
            if len(inc) != 2:
                raise PolytopeError("vertex of P not on exactly two facets")
            a, b = sorted(inc)
            tri.append((a, b, origin_idx))
        tri.sort()
    # l == 3: dual facets need not be simplices; no triangulation (quadrature unsupported)

    return DualPolytope(
        dimension=l,
        vertices=tuple(dual_vertices),
        half_spaces=half_spaces,
        lattice_points=tuple(lattice),
        triangulation=tuple(tri),
    )


def support_function(dual: DualPolytope, y) -> float | np.ndarray:
    """Support function v_{P*}(y) = max over vertices z of P* of <y, z>.

    Accepts a single point (shape (l,) or scalar for l = 1) or a batch (m, l).
    """
    V = dual.vertex_array
    y = np.asarray(y, dtype=float)
    if y.ndim <= 1:
        yv = np.atleast_1d(y).reshape(-1)
        return float(np.max(V @ yv))
    return np.max(y @ V.T, axis=1)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Per-simplex Gauss-type rule, exact for polynomial degree <= ``degree``,
    with ``refinement``-fold uniform simplex subdivision."""

    degree: int = 10
    refinement: int = 4


@lru_cache(maxsize=None)
def _reference_rule(dim: int, degree: int):
    """Positive-weight rule on the unit simplex, exact to total degree."""
    if dim == 1:
        npt = (degree + 2) // 2
        x, w = leggauss(npt)
        nodes = ((x + 1.0) / 2.0).reshape(-1, 1)
        weights = w / 2.0
        return nodes, weights
    if dim == 2:
        # collapsed square: x = u, y = v(1-u), Jacobian (1-u); the u-degree
        # rises by one so u gets one extra Gauss order
        nu = (degree + 3) // 2
        nv = (degree + 2) // 2
        xu, wu = leggauss(nu)
        xv, wv = leggauss(nv)
        u = (xu + 1.0) / 2.0
        v = (xv + 1.0) / 2.0
        uu, vv = np.meshgrid(u, v, indexing="ij")
        ww = np.outer(wu / 2.0, wv / 2.0) * (1.0 - uu)
        nodes = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
        return nodes, ww.ravel()
    raise UnsupportedDimensionError(f"no quadrature for dimension {dim}")


def _subsimplices(verts: np.ndarray, r: int) -> list[np.ndarray]:
    """Uniform subdivision of a simplex into r (1D) or r^2 (2D) pieces."""
    dim = verts.shape[1]
    out = []
    if dim == 1:
        a, b = verts[0, 0], verts[1, 0]
        ts = np.linspace(0.0, 1.0, r + 1)
        for i in range(r):
            out.append(np.array([[a + (b - a) * ts[i]], [a + (b - a) * ts[i + 1]]]))
        return out
    v0, e1, e2 = verts[0], verts[1] - verts[0], verts[2] - verts[0]
    P = lambda i, j: v0 + (i / r) * e1 + (j / r) * e2
    for i in range(r):
        for j in range(r - i):
            out.append(np.array([P(i, j), P(i + 1, j), P(i, j + 1)]))
            if i + j < r - 1:
                out.append(np.array([P(i + 1, j), P(i + 1, j + 1), P(i, j + 1)]))
    return out


# integrand points allowed in one refinement level of ``integrate``: the node
# arrays of a level are built at once, so this bounds its memory
MAX_LEVEL_NODES = 1 << 20


def _nodes_for(dual: DualPolytope, degree: int, r: int):
    key = ("nodes", degree, r)
    if key in dual._cache:
        return dual._cache[key]
    ref_nodes, ref_w = _reference_rule(dual.dimension, degree)
    all_nodes, all_w = [], []
    for simplex in dual.simplex_coords():
        for sub in _subsimplices(simplex, r):
            v0 = sub[0]
            J = (sub[1:] - v0).T  # (l, l)
            detJ = abs(float(np.linalg.det(J))) if dual.dimension > 1 else abs(float(J[0, 0]))
            all_nodes.append(ref_nodes @ J.T + v0)
            all_w.append(ref_w * detJ)
    nodes = np.vstack(all_nodes)
    weights = np.concatenate(all_w)
    dual._cache[key] = (nodes, weights)
    return nodes, weights


def _eval_rule(dual, f, degree, r) -> float:
    nodes, weights = _nodes_for(dual, degree, r)
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != weights.shape:
        raise QuadratureError(
            f"integrand returned shape {vals.shape}, expected {weights.shape} (batch contract)"
        )
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][0]
        raise QuadratureError(f"non-finite integrand value at node {bad}")
    return float(weights @ vals)


def integrate(
    dual: DualPolytope,
    f,
    rule: QuadratureRule | None = None,
    *,
    tol: float | None = None,
    max_refinement: int = 4096,
    return_error: bool = False,
):
    """Integrate f over P* by simplex-decomposed Gauss quadrature.

    ``f`` must accept an (m, l) array of points and return (m,) values.
    Starting from ``rule.refinement``, the subdivision doubles until two
    successive estimates differ by less than ``tol`` (default 1e-12 for l = 1,
    1e-10 for l = 2).  Returns the last estimate, optionally with the error
    estimate from the final doubling.  Raises QuadratureError when the next
    level would exceed ``max_refinement`` or MAX_LEVEL_NODES points.
    """
    if dual.dimension > 2 or not dual.triangulation:
        raise UnsupportedDimensionError(
            f"integration unsupported for dimension {dual.dimension}"
        )
    rule = rule or QuadratureRule()
    if tol is None:
        tol = 1e-12 if dual.dimension == 1 else 1e-10
    r = rule.refinement
    prev = _eval_rule(dual, f, rule.degree, r)
    while True:
        r *= 2
        cur = _eval_rule(dual, f, rule.degree, r)
        err = abs(cur - prev)
        if err < tol:
            return (cur, err) if return_error else cur
        n_next = len(dual.triangulation) * (2 * r) ** dual.dimension * len(
            _reference_rule(dual.dimension, rule.degree)[1]
        )
        if r >= max_refinement or n_next > MAX_LEVEL_NODES:
            raise QuadratureError(
                f"quadrature did not converge (refinement {r}, last change {err:.3e})"
            )
        prev = cur


# ---------------------------------------------------------------------------
# exact polynomial integration (rational)
# ---------------------------------------------------------------------------


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _simplex_monomial_exact(verts: list[Vector], exponents) -> Fraction:
    """Exact integral of prod x_k^{a_k} over the simplex with given vertices.

    Expands the monomial in barycentric coordinates and uses
    int_S lambda^k dx = l! vol(S) prod(k_j!) / (sum k_j + l)!.
    """
    l = len(verts) - 1
    vol = abs(_det([tuple(verts[i + 1][k] - verts[0][k] for k in range(l)) for i in range(l)]))
    vol = Fraction(vol, _factorial(l))
    if vol == 0:
        return Fraction(0)
    # polynomial in lambda_0..lambda_l as {multidegree: coeff}
    poly = {(0,) * (l + 1): Fraction(1)}
    for k, a in enumerate(exponents):
        lin = [verts[j][k] for j in range(l + 1)]  # coefficient of lambda_j
        for _ in range(a):
            new = {}
            for deg, coeff in poly.items():
                for j in range(l + 1):
                    if lin[j] == 0:
                        continue
                    nd = list(deg)
                    nd[j] += 1
                    nd = tuple(nd)
                    new[nd] = new.get(nd, Fraction(0)) + coeff * lin[j]
            poly = new
    total = Fraction(0)
    for deg, coeff in poly.items():
        s = sum(deg)
        num = Fraction(1)
        for d in deg:
            num *= _factorial(d)
        total += coeff * num / _factorial(s + l)
    return total * _factorial(l) * vol


def integrate_monomial_exact(dual: DualPolytope, exponents) -> Fraction:
    """Exact rational integral of a monomial z^alpha over P* (l <= 2)."""
    if not dual.triangulation:
        raise UnsupportedDimensionError("exact integration needs a triangulation (l <= 2)")
    pts = dual.tri_points
    total = Fraction(0)
    for s in dual.triangulation:
        total += _simplex_monomial_exact([pts[i] for i in s], exponents)
    return total


def integrate_polynomial_exact(dual: DualPolytope, poly: dict) -> Fraction:
    """Exact rational integral of sum coeff * z^alpha over P*."""
    total = Fraction(0)
    for exponents, coeff in sorted(poly.items()):
        if coeff:
            total += _frac(coeff) * integrate_monomial_exact(dual, exponents)
    return total

"""Functionals built from the dual-polytope weight g.

For a KSM datum with weight h, a multiplier profile sigma and a fiber field
with affine potential k(z) = -<c, z> + C_V, the weight

    g(z) = h(z) * exp(-sigma(k(z)))

transports every functional of the theory to the dual polytope: the reduced
Futaki vector int z g dz (whose vanishing is the existence criterion), the
Ding functional D(u) = (1/|P*|_g) int u* g - log int exp(-u), Ding invariants
of piecewise linear test data, the reduced J functionals, toric geodesics and
coercivity probes.

Every g-weighted integral -- g-moments, hat-function weights, PL integrals,
Alexandrov masses -- is int_S p(z) h(z) f(k(z)) dz over simplices S with p a
polynomial and f = exp(-sigma), and goes through ``simplex_g_integrals``: k
is affine, so the integral is one-dimensional in t = k(z) with a piecewise
polynomial weight (Duistermaat-Heckman), integrated by a fixed Gauss rule
per t-piece.  When the field touches the admissible boundary (k_min = alpha
with sigma blowing up there), g vanishes on a face of P* like (k - alpha)^e,
and the t-piece starting at alpha carries a Gauss-Jacobi rule with that
weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .convex import ConvexDualGrid, PLConvex
from .ksm import HStats, KSMData, h_stats, h_values
from .polytope import DualPolytope, _reference_rule
from .sigma import SigmaProfile

__all__ = [
    "FiberField",
    "GStats",
    "Verdict",
    "DomainError",
    "normalize_field",
    "field_from_json",
    "g_weight",
    "g_stats",
    "simplex_g_integrals",
    "stability_verdict",
    "Functionals",
]

BARYCENTER_TOL = 1e-8  # default verdict tolerance on ||b_g||
BOUNDARY_DETECT_TOL = 1e-13


class DomainError(ValueError):
    """Fiber potential leaves the admissible sigma domain."""


# ---------------------------------------------------------------------------
# fiber fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberField:
    """Fiber-directed holomorphic field, reduced to k(z) = -<c, z> + C_V.

    The normalization C_V = <c, b_h> makes the h-weighted mean of k vanish.
    Exact rational channels are carried along whenever the coefficients were
    given as rationals, so boundary potentials like k(1) = -1 are exact.
    """

    coeffs: tuple[float, ...]
    C_V: float
    vertex_values: tuple[float, ...]  # k at the dual vertices, vertex order
    coeffs_exact: tuple[Fraction, ...] | None = None
    C_V_exact: Fraction | None = None
    vertex_values_exact: tuple[Fraction, ...] | None = None

    @property
    def dimension(self) -> int:
        return len(self.coeffs)

    @property
    def k_min(self) -> float:
        return min(self.vertex_values)

    @property
    def k_max(self) -> float:
        return max(self.vertex_values)

    @property
    def c_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=float)

    def k_values(self, zs) -> np.ndarray:
        zs = np.asarray(zs, dtype=float)
        return -(zs @ self.c_array) + self.C_V

    def to_json(self) -> dict:
        if self.coeffs_exact is not None:
            return {"c": [str(x) for x in self.coeffs_exact]}
        return {"c": list(self.coeffs)}


def _maybe_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    return None


def normalize_field(c, hstats: HStats, dual: DualPolytope) -> FiberField:
    """Build the FiberField with C_V = <c, b_h> (h-weighted mean zero)."""
    c_seq = list(c if isinstance(c, (list, tuple, np.ndarray)) else [c])
    exact = [_maybe_fraction(x) for x in c_seq]
    if all(e is not None for e in exact):
        ce = tuple(exact)
        C_V_e = sum(x * b for x, b in zip(ce, hstats.barycenter_h_exact))
        vvals_e = tuple(
            -sum(x * z for x, z in zip(ce, v)) + C_V_e for v in dual.vertices
        )
        return FiberField(
            coeffs=tuple(float(x) for x in ce),
            C_V=float(C_V_e),
            vertex_values=tuple(float(v) for v in vvals_e),
            coeffs_exact=ce,
            C_V_exact=C_V_e,
            vertex_values_exact=vvals_e,
        )
    cf = tuple(float(x) for x in c_seq)
    C_V = float(np.dot(cf, hstats.barycenter_h))
    vvals = tuple(
        float(-np.dot(cf, [float(x) for x in v]) + C_V) for v in dual.vertices
    )
    return FiberField(coeffs=cf, C_V=C_V, vertex_values=vvals)


def field_from_json(obj, hstats: HStats, dual: DualPolytope) -> FiberField:
    return normalize_field(obj["c"], hstats, dual)


def field_domain_margins(field: FiberField, profile: SigmaProfile) -> tuple[float, float]:
    """(k_min - alpha, beta - k_max); both must be positive in uniform mode."""
    return field.k_min - profile.alpha, profile.beta - field.k_max


def boundary_vertex(field: FiberField, profile: SigmaProfile, dual: DualPolytope):
    """Index of the dual vertex where k attains alpha, or None.

    Exact when the field carries rational data; otherwise within
    BOUNDARY_DETECT_TOL of alpha.
    """
    if not math.isfinite(profile.alpha):
        return None
    alpha = profile.alpha
    if field.vertex_values_exact is not None and float(Fraction(alpha)) == alpha:
        af = Fraction(alpha)
        for i, v in enumerate(field.vertex_values_exact):
            if v == af:
                return i
        if min(field.vertex_values_exact) > af:
            return None
    scale = 1.0 + abs(alpha)
    i = int(np.argmin(field.vertex_values))
    if abs(field.vertex_values[i] - alpha) <= BOUNDARY_DETECT_TOL * scale:
        return i
    return None


def check_field_domain(
    field: FiberField, profile: SigmaProfile, dual: DualPolytope, *, allow_boundary=False
):
    lo, hi = field_domain_margins(field, profile)
    if hi <= 0:
        raise DomainError(
            f"k_max = {field.k_max} is not below the profile domain end {profile.beta}"
        )
    if lo < 0:
        if not (allow_boundary and boundary_vertex(field, profile, dual) is not None):
            raise DomainError(
                f"k_min = {field.k_min} lies below the profile domain start {profile.alpha}"
            )
    if lo == 0 or boundary_vertex(field, profile, dual) is not None:
        if not allow_boundary:
            raise DomainError(
                "potential touches the domain boundary (non-uniform mode); "
                "pass allow_boundary=True to accept"
            )


# ---------------------------------------------------------------------------
# the weight g and its integrals
# ---------------------------------------------------------------------------


def _f_values(profile: SigmaProfile, ts: np.ndarray) -> np.ndarray:
    """exp(-sigma(t)) vectorized, robust at the vanishing endpoint."""
    ts = np.asarray(ts, dtype=float)
    e = profile.boundary_exponent
    if e is not None:
        base = np.maximum(ts - profile.alpha, 0.0)
        return base**e * profile.f_regular(ts)
    val, _, _ = profile._impl(ts)
    return np.exp(-val)


def g_values(data: KSMData, profile: SigmaProfile, field: FiberField, zs) -> np.ndarray:
    zs = np.asarray(zs, dtype=float)
    k = field.k_values(zs)
    if np.any(k < profile.alpha - 1e-9) or np.any(k >= profile.beta):
        raise DomainError("potential value outside [alpha, beta) on the given points")
    return h_values(data, zs) * _f_values(profile, np.clip(k, profile.alpha, None))


def g_weight(data: KSMData, profile: SigmaProfile, field: FiberField, z) -> float:
    """g(z) = h(z) exp(-sigma(k(z))) at a single point of P*."""
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if not data.dual().contains(zz):
        raise DomainError(f"point {z} lies outside the dual polytope")
    return float(g_values(data, profile, field, zz.reshape(1, -1))[0])


OUTER_POINTS = 32  # Gauss points per t-piece of the pushforward rule


@lru_cache(maxsize=4096)  # holds the Jacobi rules of a whole 1e-3 tau grid
def _gauss01(n: int, e: float = 0.0):
    """n-point Gauss rule on [0, 1] for the weight s^e (Legendre when e = 0)."""
    x, w = leggauss(n) if e == 0.0 else roots_jacobi(n, 0.0, e)
    s, ws = (x + 1.0) / 2.0, w / 2.0 ** (e + 1.0)
    s.setflags(write=False)
    ws.setflags(write=False)
    return s, ws


def _ragged(counts: np.ndarray):
    """Owner and rank within the owner of every item of ragged groups."""
    owner = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, rank


def _cones(V: np.ndarray, kv: np.ndarray):
    """Split simplices with non-constant k into cones over a level set of k.

    A cone has an apex a and a base segment [a + e0, a + e0 + e1] on which k
    is constant, so z = a + s (e0 + r e1) with (s, r) in [0, 1]^2 covers it
    with area element vol * s^(l-1) ds dr and k = k_apex + s dk.  An
    interval is one cone (e1 = 0); a triangle splits at the level of its
    middle vertex into a cone on its lowest and one on its highest vertex.
    Returns (simplex index, apex, e0, e1, vol, k_apex, dk) per cone.
    """
    sid = np.arange(len(V))
    if V.shape[2] == 1:
        e0 = V[:, 1] - V[:, 0]
        return sid, V[:, 0], e0, np.zeros_like(e0), np.abs(e0[:, 0]), kv[:, 0], kv[:, 1] - kv[:, 0]
    order = np.argsort(kv, axis=1)
    A, B, C = (np.take_along_axis(V, order[:, i, None, None], 1)[:, 0] for i in range(3))
    k0, k1, k2 = (np.take_along_axis(kv, order[:, i, None], 1)[:, 0] for i in range(3))
    P = A + ((k1 - k0) / (k2 - k0))[:, None] * (C - A)  # level-k1 point on edge AC
    apex = np.concatenate([A, C])
    e0 = np.concatenate([B - A, B - C])
    e1 = np.tile(P - B, (2, 1))
    vol = np.abs(e0[:, 0] * e1[:, 1] - e0[:, 1] * e1[:, 0])
    keep = vol > 0
    kap = np.concatenate([k0, k2])
    dk = np.concatenate([k1 - k0, k1 - k2])
    return tuple(x[keep] for x in (np.tile(sid, 2), apex, e0, e1, vol, kap, dk))


def _outer_rule(profiles: list[SigmaProfile], kap: np.ndarray, dk: np.ndarray):
    """Gauss rule in s for int_0^1 q(s) f(k_apex + s dk) ds on every cone,
    for a batch of T profiles of one family.

    Pieces break at the sample abscissae of custom profiles.  For a profile
    vanishing like (t - alpha)^e, the piece that starts at alpha carries
    Gauss-Jacobi with that weight, and a cone that only comes close to alpha
    is cut geometrically toward it (every piece at least as far from alpha
    as it is wide), where a fixed Legendre rule converges like
    (1 + sqrt(2 delta / width))^(-2n).  The breaks and the Legendre nodes
    depend only on the family and are shared by the batch; only the
    Gauss-Jacobi nodes follow each profile's exponent.  Returns a list of
    parts (cone, s, weight * f) with s of shape (1, n) when the batch shares
    the nodes, (T, n) when it does not, and weight * f of shape (T, n).
    """
    head, T = profiles[0], len(profiles)
    n_cones = len(kap)
    tlo, thi = np.minimum(kap, kap + dk), np.maximum(kap, kap + dk)
    near = np.where(dk > 0, 0.0, 1.0)  # the end of [0, 1] where k is lowest
    cone = [np.arange(n_cones), np.arange(n_cones)]
    s_br = [np.zeros(n_cones), np.ones(n_cones)]
    if head.kind == "custom":
        ts = np.unique([a for q in profiles for a, _ in q.params["samples"]])
        i0 = np.searchsorted(ts, tlo, side="right")
        owner, rank = _ragged(np.searchsorted(ts, thi, side="left") - i0)
        cone.append(owner)
        s_br.append((ts[i0[owner] + rank] - kap[owner]) / dk[owner])
    at_alpha = np.zeros(n_cones, dtype=bool)
    if head.boundary_exponent is not None:
        dist = tlo - head.alpha
        at_alpha = dist <= BOUNDARY_DETECT_TOL * (1.0 + abs(head.alpha))
        graded = ~at_alpha & (dist < np.abs(dk))
        counts = np.zeros(n_cones, dtype=int)
        counts[graded] = np.ceil(np.log2((thi[graded] - head.alpha) / dist[graded])) - 1
        owner, rank = _ragged(counts)
        cone.append(owner)
        offset = dist[owner] * (2.0 ** (rank + 1) - 1.0) / np.abs(dk[owner])
        s_br.append(np.abs(near[owner] - offset))
    cone, s_br = np.concatenate(cone), np.concatenate(s_br)
    order = np.lexsort((s_br, cone))
    cone, s_br = cone[order], s_br[order]
    piece = (cone[1:] == cone[:-1]) & (s_br[1:] > s_br[:-1])
    pc, sa, sb = cone[:-1][piece], s_br[:-1][piece], s_br[1:][piece]
    jac = at_alpha[pc] & (np.where(dk[pc] > 0, sa, 1.0 - sb) == 0.0)

    x, w = _gauss01(OUTER_POINTS)
    s = sa[~jac, None] + (sb - sa)[~jac, None] * x
    t = np.clip(kap[pc[~jac], None] + s * dk[pc[~jac], None], head.alpha, None)
    fw = (sb - sa)[~jac, None] * w * np.array([_f_values(q, t) for q in profiles])
    parts = [(np.repeat(pc[~jac], len(x)), s.reshape(1, -1), fw.reshape(T, -1))]
    if np.any(jac):
        # (t - alpha)^e = (|dk| * distance from the near end)^e, one rule per e
        e = np.array([q.boundary_exponent for q in profiles])[:, None, None]
        rules = [_gauss01(OUTER_POINTS, q.boundary_exponent) for q in profiles]
        xj, wj = (np.array(a)[:, None] for a in zip(*rules))
        c, width = pc[jac], (sb - sa)[jac, None]
        s = np.where(dk[c, None] > 0, sa[jac, None] + width * xj, sb[jac, None] - width * xj)
        t = kap[c, None] + s * dk[c, None]
        fw = wj * width ** (e + 1.0) * np.abs(dk[c, None]) ** e * np.array(
            [q.f_regular(tq) for q, tq in zip(profiles, t)]
        )
        parts.append((np.repeat(c, OUTER_POINTS), s.reshape(T, -1), fw.reshape(T, -1)))
    return parts


def simplex_g_integrals(data, profile, field, simplices, p=None) -> np.ndarray:
    """int_S p(z) h(z) f(k(z)) dz for every simplex S of a batch.

    ``simplices`` is an (S, l + 1, l) array of vertices (intervals for l = 1,
    triangles for l = 2); f = exp(-sigma) of ``profile``, or f = 1 when
    ``profile`` is None (the weight h).  ``p(zs, owner)`` maps the rule's
    (m, l) nodes and their simplex indices to (m,) or (m, q) values of
    polynomials of degree <= 2 (p = 1 when None); returns (S,) or (S, q).

    ``profile`` may also be a list of T profiles of one family (the same
    kind, alpha and beta, all with or all without a boundary exponent), such
    as ``tau_mix`` at many tau > 0; the result then has a leading axis of
    length T.  The cone split, the t-pieces and the Legendre nodes with h
    and p on them are computed once for the batch; only the f values and
    the Gauss-Jacobi piece at alpha are per profile.  A single profile is a
    batch of one.

    k is affine, so by Duistermaat-Heckman the pushforward of p h dz under k
    has a piecewise polynomial density with knots at the vertex values of k,
    and each integral is one-dimensional in t = k(z): a fixed Gauss rule per
    t-piece (see ``_outer_rule``) times Gauss-Legendre on the slice
    {k = t}, exact for degree deg h + 2.  Where k is constant on S the
    integral is f(k) times the degree-exact simplex rule.
    """
    batch = isinstance(profile, list)
    profiles = profile if batch else [profile]
    head, T = profiles[0], len(profiles)
    V = np.asarray(simplices, dtype=float)
    S, l = V.shape[0], V.shape[2]
    deg = data.base_dimension + 2
    if head is None:
        kv = np.zeros(V.shape[:2])
    else:
        family = (head.kind, head.alpha, head.beta, head.boundary_exponent is None)
        if any((q.kind, q.alpha, q.beta, q.boundary_exponent is None) != family for q in profiles):
            raise ValueError("a profile batch must share kind, alpha, beta and boundary exponent")
        kv = field.k_values(V.reshape(-1, l)).reshape(S, l + 1)
        if np.any(kv < head.alpha - 1e-9) or np.any(kv >= head.beta):
            raise DomainError("potential value outside [alpha, beta) on the given simplices")
    flat = kv.max(axis=1) == kv.min(axis=1)

    # parts (owner, nodes, weights) of shapes (1, n), (1 or T, n, l), (T, n):
    # groups[0] holds the parts whose nodes the batch shares, groups[1] the
    # parts with per-profile nodes (none in a batch of one)
    groups = ([], [])
    ref, ref_w = _reference_rule(l, deg)
    E = V[flat, 1:] - V[flat, :1]
    if head is None:
        f_flat = np.ones((T, len(E)))
    else:
        k_flat = np.clip(kv[flat, 0], head.alpha, None)
        f_flat = np.array([_f_values(q, k_flat) for q in profiles])
    groups[0].append((
        np.repeat(np.nonzero(flat)[0], len(ref_w))[None],
        (V[flat, None, 0] + np.einsum("nk,skj->snj", ref, E)).reshape(1, -1, l),
        ((np.abs(np.linalg.det(E)) * f_flat)[..., None] * ref_w).reshape(T, -1),
    ))
    if not np.all(flat):
        sid, apex, e0, e1, vol, kap, dk = _cones(V[~flat], kv[~flat])
        cone_owner = np.nonzero(~flat)[0][sid]
        r, wr = _gauss01(1 if l == 1 else (deg + 2) // 2)
        for cone, s, fw in _outer_rule(profiles, kap, dk):
            ray = e0[cone, None] + r[:, None] * e1[cone, None]  # (outer, inner, l)
            groups[len(s) > 1].append((
                np.repeat(cone_owner[cone], len(r))[None],
                (apex[cone, None] + s[..., None, None] * ray).reshape(len(s), -1, l),
                ((fw * vol[cone] * s ** (l - 1))[..., None] * wr).reshape(T, -1),
            ))

    # h and p once per node and the sums per simplex, one pass per group
    out, cols = 0.0, ()
    for group in filter(None, groups):
        own, zs, w = (np.concatenate(a, axis=1) for a in zip(*group))
        tz, n = zs.shape[:2]
        zs = zs.reshape(-1, l)
        w = w * h_values(data, zs).reshape(tz, n)
        if p is None:
            w = w[None]
        else:
            v = np.asarray(p(zs, np.broadcast_to(own, (tz, n)).ravel()))
            cols = v.shape[1:]
            w = w * np.moveaxis(v.reshape(tz, n, math.prod(cols)), 2, 0)  # (q, T, n)
        idx = (own + S * np.arange(T)[:, None]).ravel()
        out = out + np.array([np.bincount(idx, wj.ravel(), minlength=T * S) for wj in w])
    out = out.T.reshape(T, S, *cols)
    return out if batch else out[0]


def g_integral(data, profile, field, poly_fn):
    """int_{P*} poly_fn(z) g(z) dz over the triangulation of P* (g = h when
    ``profile`` is None).

    ``poly_fn`` maps an (m, l) batch to (m,) or (m, q) values of polynomials
    of degree <= 2; returns a float or a (q,) array, with a leading profile
    axis when ``profile`` is a list (see ``simplex_g_integrals``).
    """
    out = simplex_g_integrals(
        data, profile, field, np.array(data.dual().simplex_coords()), lambda zs, _: poly_fn(zs)
    ).sum(axis=int(isinstance(profile, list)))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class GStats:
    """g-weighted volume, barycenter, reduced Futaki vector and the bounds
    A <= exp(-sigma(k)) <= B over P* (A = 0 exactly in non-uniform mode)."""

    volume_g: float
    barycenter_g: np.ndarray
    reduced_futaki: np.ndarray
    A: float
    B: float


def g_stats(
    data: KSMData,
    profile: SigmaProfile,
    field: FiberField,
    *,
    allow_boundary: bool = True,
) -> GStats:
    """All g-moments of P*.  The reduced Futaki vector is (int z_k g dz)_k, the
    existence criterion being its vanishing; it drops the fixed positive
    base-fiber factor, so only its vanishing and sign carry meaning."""
    check_field_domain(field, profile, data.dual(), allow_boundary=allow_boundary)
    moments = g_integral(
        data, profile, field, lambda zs: np.column_stack([np.ones(len(zs)), zs])
    )
    vol, fut = float(moments[0]), moments[1:]
    ts = np.linspace(field.k_min, field.k_max, 2001)
    fvals = _f_values(profile, np.clip(ts, profile.alpha, None))
    return GStats(
        volume_g=vol,
        barycenter_g=fut / vol,
        reduced_futaki=fut,
        A=float(np.min(fvals)),
        B=float(np.max(fvals)),
    )


# ---------------------------------------------------------------------------
# stability verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    status: str  # "polystable_uniform" | "polystable_nonuniform" | "unstable"
    barycenter_norm: float
    barycenter_g: tuple[float, ...]
    reduced_futaki: tuple[float, ...]
    tol: float
    boundary_touching: bool
    destabilizer: dict | None  # {"pieces": ..., "invariant": float} when unstable

    @property
    def polystable(self) -> bool:
        return self.status.startswith("polystable")

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "barycenter_g": list(self.barycenter_g),
            "barycenter_norm": self.barycenter_norm,
            "reduced_futaki": list(self.reduced_futaki),
            "tol": self.tol,
            "boundary_touching": self.boundary_touching,
            "destabilizer": self.destabilizer,
        }


def stability_verdict(
    stats: GStats,
    profile: SigmaProfile,
    field: FiberField,
    data: KSMData,
    tol: float = BARYCENTER_TOL,
) -> Verdict:
    """Classify (data, sigma, field): polystable (uniform or non-uniform when
    k_min = alpha) versus unstable, with the coordinate destabilizer and its
    Ding invariant in the unstable case."""
    bnorm = float(np.linalg.norm(stats.barycenter_g))
    boundary = boundary_vertex(field, profile, data.dual()) is not None
    if bnorm <= tol:
        status = "polystable_nonuniform" if boundary else "polystable_uniform"
        dest = None
    else:
        status = "unstable"
        k = int(np.argmax(np.abs(stats.reduced_futaki)))
        sign = 1.0 if stats.reduced_futaki[k] > 0 else -1.0
        a = tuple(
            Fraction(-int(sign)) if j == k else Fraction(0)
            for j in range(field.dimension)
        )
        phi = PLConvex.make([(a, Fraction(0))])
        fn = Functionals(data, profile, field, gstats=stats)
        dest = {"pieces": phi.to_json(), "invariant": fn.ding_invariant(phi)}
    return Verdict(
        status=status,
        barycenter_norm=bnorm,
        barycenter_g=tuple(float(x) for x in stats.barycenter_g),
        reduced_futaki=tuple(float(x) for x in stats.reduced_futaki),
        tol=tol,
        boundary_touching=boundary,
        destabilizer=dest,
    )


# ---------------------------------------------------------------------------
# functional context: Ding, J, geodesics, probes
# ---------------------------------------------------------------------------


class Functionals:
    """All g-weighted functionals for one (data, profile, field) triple.

    Caches hat-function weights per grid geometry so Ding/J evaluations on a
    fixed grid are O(#nodes) dot products.
    """

    def __init__(self, data, profile, field, *, hstats=None, gstats=None):
        self.data = data
        self.profile = profile
        self.field = field
        self.dual = data.dual()
        self.hstats = hstats or h_stats(data)
        self.gstats = gstats or g_stats(data, profile, field)
        self._hat_cache: dict = {}

    # -- nodal quadrature weights ------------------------------------------

    def hat_weights(self, geom, kind: str) -> np.ndarray:
        """w_j = int hat_j(z) * weight(z) dz over P* for every grid node j,
        with weight g (kind "g") or h (kind "h")."""
        key = (id(geom), kind)
        if key in self._hat_cache:
            return self._hat_cache[key]
        cells = geom.cells
        simplices = geom.nodes[cells]
        prof, fld = (self.profile, self.field) if kind == "g" else (None, None)
        per_vertex = simplex_g_integrals(
            self.data, prof, fld, simplices, lambda zs, owner: _barycentric(simplices, zs, owner)
        )
        w = np.bincount(cells.ravel(), per_vertex.ravel(), minlength=geom.n_nodes)
        self._hat_cache[key] = w
        return w

    # -- core functionals ----------------------------------------------------

    def ding(self, u: ConvexDualGrid, *, return_parts: bool = False):
        """D(u) = (1/|P*|_g) int u* g dz - log int exp(-u) dy."""
        wg = self.hat_weights(u.geom, "g")
        dual_part = float(wg @ u.values) / self.gstats.volume_g
        res = u.exp_integral()
        D = dual_part - res["log_total"]
        if return_parts:
            return D, {
                "dual_part": dual_part,
                "exp_integral": res["total"],
                "log_exp_integral": res["log_total"],
            }
        return D

    def j_red(self, u: ConvexDualGrid) -> float:
        """J_red(u) = (1/|P*|_h) int u* h dz - u*(b_h) (nonnegative)."""
        wh = self.hat_weights(u.geom, "h")
        return float(wh @ u.values) / self.hstats.volume_h - u.interpolate(
            self.hstats.barycenter_h
        )

    def j_sigma(self, u: ConvexDualGrid) -> float:
        """J^sigma_red(u) = (1/|P*|_g) int u* g dz - u*(b_g)."""
        wg = self.hat_weights(u.geom, "g")
        return float(wg @ u.values) / self.gstats.volume_g - u.interpolate(
            self.gstats.barycenter_g
        )

    # -- Ding invariants of PL test data -------------------------------------

    def pl_g_integral(self, phi: PLConvex) -> float:
        """int_{P*} phi g dz, exact-in-structure over phi's linearity pieces:
        one interval per kink in 1D, the exactly clipped polygons of each
        piece, fan-triangulated, in 2D."""
        if self.data.fiber_dimension == 1:
            cuts = [float(x) for x in phi.kink_points_1d(Fraction(-1), Fraction(1))]
            cells = np.column_stack([cuts[:-1], cuts[1:]])[:, :, None]
            return float(np.sum(simplex_g_integrals(
                self.data, self.profile, self.field, cells, lambda zs, _: phi(zs)
            )))
        tris, slopes, offsets = [], [], []
        pts = self.dual.tri_points
        for simplex in self.dual.triangulation:
            tri = [pts[i] for i in simplex]
            for r, (ar, br) in enumerate(phi.pieces):
                for t in _fan_triangulate(_clip_to_piece(tri, phi.pieces, r)):
                    tris.append([[float(x) for x in v] for v in t])
                    slopes.append([float(x) for x in ar])
                    offsets.append(float(br))
        A, B = np.array(slopes), np.array(offsets)
        return float(np.sum(simplex_g_integrals(
            self.data, self.profile, self.field, np.array(tris),
            lambda zs, owner: np.einsum("ij,ij->i", zs, A[owner]) + B[owner],
        )))

    def ding_invariant(self, phi: PLConvex) -> float:
        """(1/|P*|_g) int phi g dz - phi(0): the Ding invariant of the
        fiber-directed toric test configuration given by (P, phi, R);
        independent of the offset R."""
        return self.pl_g_integral(phi) / self.gstats.volume_g - phi.at_zero()

    # -- geodesics ------------------------------------------------------------

    def geodesic_point(self, u0: ConvexDualGrid, phi: PLConvex, t: float, R=None) -> ConvexDualGrid:
        """u_t with dual values u0* + t (phi - R)."""
        if t < 0:
            raise ValueError("geodesic parameter t must be nonnegative")
        Rv = float(phi.offset if R is None else R)
        return u0.with_values(u0.values + t * (phi(u0.nodes) - Rv))

    # -- coercivity probe ------------------------------------------------------

    def coercivity_probe(self, samples, j_kind: str = "red"):
        """Fit the largest delta and smallest C with D >= delta * J - C over
        the sample set; j_kind selects J_red or J^sigma_red.

        delta is the smallest slope (D_i + C) / J_i over the outer-J samples
        (J_i >= max J / 4), with C the offset needed at small J.  Reports "no
        coercivity evidence" when delta <= 0 or when D spreads by more than 1
        across samples whose J agree to 1e-9 (D unbounded below at frozen J).
        """
        jfun = self.j_red if j_kind == "red" else self.j_sigma
        table = []
        for u in samples:
            table.append((float(jfun(u)), float(self.ding(u))))
        js = np.array([t[0] for t in table])
        ds = np.array([t[1] for t in table])
        C0 = float(max(0.0, -np.min(ds)))
        jmax = float(np.max(js)) if len(js) else 0.0
        outer = js >= max(jmax / 4.0, 1e-12)
        if np.any(outer):
            delta = float(np.min((ds[outer] + C0) / js[outer]))
        else:
            delta = 0.0
        flat = js <= 1e-9 * (1.0 + jmax)
        unbounded_at_flat = bool(np.any(flat) and (np.ptp(ds[flat]) > 1.0 if np.sum(flat) > 1 else False))
        evidence = delta > 0 and not unbounded_at_flat
        message = (
            "coercivity evidence on the sample set"
            if evidence
            else "no coercivity evidence"
            + ("; D unbounded below at J ~ 0" if unbounded_at_flat else "")
        )
        return {
            "delta": delta,
            "C": C0,
            "table": table,
            "evidence": evidence,
            "j_kind": j_kind,
            "message": message,
        }


# ---------------------------------------------------------------------------
# exact polygon clipping for 2D PL integrals
# ---------------------------------------------------------------------------


def _clip_to_piece(poly, pieces, r):
    """Clip a rational polygon to {z : piece r >= piece s for all s}."""
    ar, br = pieces[r]
    out = [tuple(p) for p in poly]
    for s, (as_, bs) in enumerate(pieces):
        if s == r:
            continue
        # half plane <ar - as, z> + (br - bs) >= 0
        n = tuple(ar[i] - as_[i] for i in range(len(ar)))
        c = br - bs
        if all(x == 0 for x in n) and c == 0:
            continue
        out = _clip_halfplane(out, n, c)
        if len(out) < 3:
            return []
    return out


def _clip_halfplane(poly, n, c):
    """Sutherland-Hodgman in exact rationals against <n, z> + c >= 0."""
    if not poly:
        return []
    res = []
    m = len(poly)
    vals = [n[0] * p[0] + n[1] * p[1] + c for p in poly]
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        vp, vq = vals[i], vals[(i + 1) % m]
        if vp >= 0:
            res.append(p)
        if (vp > 0 and vq < 0) or (vp < 0 and vq > 0):
            t = vp / (vp - vq)
            res.append(
                (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            )
    # drop exact duplicates
    dedup = []
    for p in res:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _fan_triangulate(poly):
    return [(poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1)]


def _barycentric(simplices: np.ndarray, zs: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (m, l + 1) of the points zs in simplices[owner]."""
    v0 = simplices[:, 0]
    inv = np.linalg.inv(np.transpose(simplices[:, 1:] - v0[:, None], (0, 2, 1)))
    lam = np.einsum("mij,mj->mi", inv[owner], zs - v0[owner])
    return np.column_stack([1.0 - lam.sum(axis=1), lam])

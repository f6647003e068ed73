"""KSM-data records, the base weight h, and h-weighted statistics.

A KSM datum consists of a base dimension n, a fiber dimension l, n rational
curvature vectors mu_alpha in Q^l and an l-dimensional Fano polytope P.  The
only admissibility requirement is -mu_alpha in Int(P) for every alpha, which
is equivalent to positivity of h(z) = prod_alpha (1 + <mu_alpha, z>) on the
dual polytope P*.

h is a polynomial with rational coefficients, so its moments over P* are
computed twice: exactly (rational simplex-monomial integration, used wherever
downstream code needs exact normalization constants) and by the pushforward
rule of ``functionals.simplex_g_integrals`` with the weight h, exact for
polynomials (the float channel the rest of the library runs on).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polytope import (
    DualPolytope,
    FanoPolytope,
    PolytopeError,
    integrate_polynomial_exact,
)

__all__ = [
    "KSMData",
    "KSMValidationError",
    "HStats",
    "check_ksm",
    "validate_ksm",
    "h_weight",
    "h_stats",
    "reference_potential_uP",
    "reference_potential_uP_grad",
]


class KSMValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid KSM data: " + "; ".join(violations))


@dataclass(frozen=True)
class KSMData:
    """(n, l)-dimensional KSM datum; curvature vectors are exact rationals."""

    base_dimension: int
    fiber_dimension: int
    curvature_vectors: tuple[tuple[Fraction, ...], ...]
    polytope: FanoPolytope
    label: str = ""

    @property
    def n(self) -> int:
        return self.base_dimension

    @property
    def l(self) -> int:
        return self.fiber_dimension

    def dual(self) -> DualPolytope:
        return self.polytope.dual()

    @property
    def mu_array(self) -> np.ndarray:
        if self.base_dimension == 0:
            return np.zeros((0, self.fiber_dimension))
        return np.array([[float(x) for x in mu] for mu in self.curvature_vectors])

    def to_json(self) -> dict:
        return {
            "n": self.base_dimension,
            "l": self.fiber_dimension,
            "mu": [[str(x) for x in mu] for mu in self.curvature_vectors],
            "polytope": self.polytope.to_json(),
            "label": self.label,
        }

    @staticmethod
    def from_json(obj) -> "KSMData":
        from .polytope import validate_fano

        poly = validate_fano(obj["polytope"]["vertices"])
        mu = tuple(tuple(Fraction(x) for x in row) for row in obj.get("mu", []))
        data = KSMData(
            base_dimension=int(obj["n"]),
            fiber_dimension=int(obj["l"]),
            curvature_vectors=mu,
            polytope=poly,
            label=obj.get("label", ""),
        )
        return validate_ksm(data)


def make_ksm(n, l, mu, polytope_vertices, label="") -> KSMData:
    """Convenience constructor accepting ints/strings/Fractions for mu."""
    from .polytope import validate_fano

    poly = validate_fano(polytope_vertices)
    mu_t = tuple(tuple(Fraction(x) for x in row) for row in mu)
    return validate_ksm(
        KSMData(
            base_dimension=n,
            fiber_dimension=l,
            curvature_vectors=mu_t,
            polytope=poly,
            label=label,
        )
    )


def check_ksm(data: KSMData):
    """Return (margins, violations).

    margins[alpha] is the exact minimum of 1 + <mu_alpha, z> over the vertices
    of P*; strict interiority of -mu_alpha in P is exactly positivity of this
    margin.
    """
    violations = []
    if data.base_dimension < 0:
        violations.append("base dimension must be nonnegative")
    if data.fiber_dimension != data.polytope.dimension:
        violations.append(
            f"fiber dimension {data.fiber_dimension} != polytope dimension {data.polytope.dimension}"
        )
    if len(data.curvature_vectors) != data.base_dimension:
        violations.append(
            f"expected {data.base_dimension} curvature vectors, got {len(data.curvature_vectors)}"
        )
    margins = []
    if not violations:
        dual = data.dual()
        for a, mu in enumerate(data.curvature_vectors):
            if len(mu) != data.fiber_dimension:
                violations.append(f"curvature vector {a} has wrong dimension")
                continue
            margin = min(
                1 + sum(m * z for m, z in zip(mu, w)) for w in dual.vertices
            )
            margins.append(margin)
            if margin <= 0:
                violations.append(
                    f"-mu_{a + 1} = {tuple(-x for x in mu)} is not strictly inside P"
                    f" (margin {margin})"
                )
    return margins, violations


def validate_ksm(data: KSMData) -> KSMData:
    _, violations = check_ksm(data)
    if violations:
        raise KSMValidationError(violations)
    return data


def h_weight(data: KSMData, z) -> float:
    """h(z) = prod_alpha (1 + <mu_alpha, z>) at a single point z in P*."""
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if not data.dual().contains(zz):
        raise ValueError(f"point {z} lies outside the dual polytope")
    return float(h_values(data, zz.reshape(1, -1))[0])


def h_values(data: KSMData, zs: np.ndarray) -> np.ndarray:
    """Vectorized h on an (m, l) batch of points (no containment check)."""
    zs = np.asarray(zs, dtype=float)
    if data.base_dimension == 0:
        return np.ones(zs.shape[0])
    return np.prod(1.0 + zs @ data.mu_array.T, axis=1)


def h_polynomial(data: KSMData) -> dict:
    """Expand h as {exponent multi-index: Fraction coefficient}."""
    l = data.fiber_dimension
    poly = {(0,) * l: Fraction(1)}
    for mu in data.curvature_vectors:
        new = {}
        for deg, coeff in poly.items():
            new[deg] = new.get(deg, Fraction(0)) + coeff  # the 1-term
            for k in range(l):
                if mu[k] == 0:
                    continue
                nd = list(deg)
                nd[k] += 1
                nd = tuple(nd)
                new[nd] = new.get(nd, Fraction(0)) + coeff * mu[k]
        poly = new
    return poly


@dataclass(frozen=True)
class HStats:
    """h-weighted volume, barycenter and Kaehler-Einstein defect of P*.

    Float fields come from the pushforward rule of ``simplex_g_integrals``,
    exact for the polynomial h up to rounding; the *_exact fields hold
    the rational values from exact polynomial integration (h is polynomial).
    The defect vector is (int z_k h dz)_k; its vanishing is the classical
    Kaehler-Einstein criterion.
    """

    volume_h: float
    barycenter_h: np.ndarray
    ke_defect: np.ndarray
    volume_h_exact: Fraction
    barycenter_h_exact: tuple[Fraction, ...]
    ke_defect_exact: tuple[Fraction, ...]

    KE_TOL = 1e-9  # |defect| <= KE_TOL * volume_h declares the KE criterion met

    @property
    def ke_satisfied(self) -> bool:
        return bool(np.linalg.norm(self.ke_defect) <= self.KE_TOL * self.volume_h)


def h_stats(data: KSMData) -> HStats:
    """Volume, barycenter and KE defect of P* under h dz (l <= 2)."""
    from .functionals import g_integral  # functionals imports this module

    if data.fiber_dimension > 2:
        raise PolytopeError("h statistics implemented for l <= 2 only")
    dual = data.dual()
    l = data.fiber_dimension

    moments = g_integral(data, None, None, lambda zs: np.column_stack([np.ones(len(zs)), zs]))
    vol, defect = float(moments[0]), moments[1:]

    poly = h_polynomial(data)
    vol_exact = integrate_polynomial_exact(dual, poly)
    defect_exact = []
    for k in range(l):
        shifted = {}
        for deg, coeff in poly.items():
            nd = list(deg)
            nd[k] += 1
            shifted[tuple(nd)] = coeff
        defect_exact.append(integrate_polynomial_exact(dual, shifted))
    bary_exact = tuple(d / vol_exact for d in defect_exact)

    return HStats(
        volume_h=vol,
        barycenter_h=defect / vol,
        ke_defect=defect,
        volume_h_exact=vol_exact,
        barycenter_h_exact=bary_exact,
        ke_defect_exact=tuple(defect_exact),
    )


def log_sum_exp(points: np.ndarray, ys: np.ndarray):
    """log sum_a exp(<a, y>) over the rows a of ``points``, per row y of
    ``ys`` (overflow-guarded), and the softmax weights of the terms: their
    mean of ``points`` is the gradient in y."""
    E = ys @ points.T
    mx = np.max(E, axis=1, keepdims=True)
    W = np.exp(E - mx)
    total = np.sum(W, axis=1)
    return mx[:, 0] + np.log(total), W / total[:, None]


def reference_potential_uP(data: KSMData, y) -> float | np.ndarray:
    """u_P(y) = log sum over lattice points a of P* of exp(<a, y>).

    Overflow-guarded log-sum-exp; accepts a point or an (m, l) batch.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim <= 1
    ys = np.atleast_2d(np.atleast_1d(y).reshape(1, -1) if single else y)
    out = log_sum_exp(data.dual().lattice_array, ys)[0]
    return float(out[0]) if single else out


def reference_potential_uP_grad(data: KSMData, y) -> np.ndarray:
    """Gradient of u_P (the fiber moment map); maps R^l onto Int(P*)."""
    A = data.dual().lattice_array
    G = log_sum_exp(A, np.atleast_2d(np.asarray(y, dtype=float)))[1] @ A
    return G[0] if np.asarray(y).ndim <= 1 else G

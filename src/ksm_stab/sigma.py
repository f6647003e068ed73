"""Multiplier profiles sigma on an interval (alpha, beta).

Built-in families:

* ``constant(c)``              -- Kaehler-Einstein,
* ``linear(shift)``            -- sigma(s) = -s + shift, Kaehler-Ricci soliton,
* ``mabuchi_log(shift)``       -- sigma(s) = -log(s + shift) on (-shift, inf),
* ``tau_mix(tau)``             -- -(1-tau) s - tau log(s+1) on (-1, inf),
* ``custom(samples)``          -- monotone cubic interpolation of a table.

Admissibility means (i) sigma' <= 0 <= sigma'' or (ii) sigma'' > 0 on the
domain.  For profiles blowing up at a finite left endpoint alpha the growth
check probes f(t) = exp(-sigma(t)) >= A0 (t - alpha), the assumption behind
the weak-solution theory in the non-uniform regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SigmaProfile",
    "constant",
    "linear",
    "mabuchi_log",
    "tau_mix",
    "custom",
    "AdmissibilityReport",
    "GrowthReport",
    "check_admissible",
    "check_growth",
    "profile_from_json",
]


@dataclass(frozen=True)
class SigmaProfile:
    """A multiplier profile with closed-form derivatives where available."""

    kind: str
    alpha: float  # left end of the open domain (-inf allowed)
    beta: float  # right end (+inf allowed)
    params: dict = field(default_factory=dict)
    _impl: Callable = field(default=None, repr=False, compare=False)

    # exponent e with f(t) = (t-alpha)^e * f_regular(t), f_regular smooth > 0;
    # None when f does not vanish at alpha or alpha is infinite
    boundary_exponent: float | None = None

    def __call__(self, t):
        return self.evaluate(t)[0]

    def evaluate(self, t):
        """Return (sigma, sigma', sigma'') at t; t strictly inside (alpha, beta).

        Accepts scalars or arrays.
        """
        tt = np.asarray(t, dtype=float)
        if np.any(tt <= self.alpha) or np.any(tt >= self.beta):
            raise ValueError(
                f"t={t} outside the open domain ({self.alpha}, {self.beta})"
            )
        return self._impl(tt)

    def f(self, t):
        """f(t) = exp(-sigma(t)); defined on [alpha, beta) with f(alpha) = 0
        when sigma blows up at alpha."""
        tt = np.asarray(t, dtype=float)
        scalar = tt.ndim == 0
        tt = np.atleast_1d(tt).astype(float)
        if np.any(tt < self.alpha - 1e-15) or np.any(tt >= self.beta):
            raise ValueError(f"t={t} outside [alpha, beta)")
        out = np.empty_like(tt)
        at_alpha = np.abs(tt - self.alpha) < 1e-15
        inside = ~at_alpha
        if np.any(inside):
            out[inside] = np.exp(-self._impl(tt[inside])[0])
        if np.any(at_alpha):
            if self.boundary_exponent is not None and self.boundary_exponent > 0:
                out[at_alpha] = 0.0
            elif math.isfinite(self.alpha):
                # continuous extension (profiles smooth up to alpha)
                out[at_alpha] = np.exp(-self._impl(np.array([self.alpha + 1e-13]))[0][0])
            else:
                raise ValueError("evaluation at an infinite endpoint")
        return float(out[0]) if scalar else out

    def f_regular(self, t):
        """The smooth positive factor in f(t) = (t-alpha)^e * f_regular(t).

        Only defined when boundary_exponent is not None.
        """
        if self.boundary_exponent is None:
            raise ValueError("profile has no boundary factorization")
        tt = np.asarray(t, dtype=float)
        if self.kind == "tau_mix":
            return np.exp((1.0 - self.params["tau"]) * tt)
        if self.kind == "mabuchi_log":
            return np.ones_like(tt)
        raise ValueError(f"no regular factor for kind {self.kind!r}")

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        obj.update(
            {k: v for k, v in self.params.items() if not isinstance(v, np.ndarray)}
        )
        if self.kind == "custom":
            obj["samples"] = [[float(a), float(b)] for a, b in self.params["samples"]]
        return obj


def constant(c: float = 0.0) -> SigmaProfile:
    def impl(t):
        z = np.zeros_like(t)
        return np.full_like(t, float(c)), z, z

    return SigmaProfile("constant", -math.inf, math.inf, {"c": float(c)}, impl)


def linear(shift: float = 0.0) -> SigmaProfile:
    def impl(t):
        return -t + shift, np.full_like(t, -1.0), np.zeros_like(t)

    return SigmaProfile("linear", -math.inf, math.inf, {"shift": float(shift)}, impl)


def mabuchi_log(shift: float = 1.0) -> SigmaProfile:
    """sigma(s) = -log(s + shift) on (-shift, inf); shift must exceed -min k."""

    def impl(t):
        w = t + shift
        return -np.log(w), -1.0 / w, 1.0 / w**2

    return SigmaProfile(
        "mabuchi_log",
        -float(shift),
        math.inf,
        {"shift": float(shift)},
        impl,
        boundary_exponent=1.0,
    )


def tau_mix(tau: float) -> SigmaProfile:
    """Interpolation -(1-tau) s - tau log(s+1) on (-1, inf), tau in [0, 1]."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau={tau} outside [0, 1]")

    def impl(t):
        w = t + 1.0
        if tau == 0.0:  # avoid 0 * log(0) at the domain edge
            return -t, np.full_like(t, -1.0), np.zeros_like(t)
        val = -(1.0 - tau) * t - tau * np.log(w)
        d1 = -(1.0 - tau) - tau / w
        d2 = tau / w**2
        return val, d1, d2

    return SigmaProfile(
        "tau_mix",
        -1.0,
        math.inf,
        {"tau": float(tau)},
        impl,
        boundary_exponent=float(tau) if tau > 0 else None,
    )


def custom(samples) -> SigmaProfile:
    """Monotone cubic interpolation of (t, sigma) samples; open sample range.

    sigma' and sigma'' are the exact derivatives of the interpolant; the
    admissibility report flags such profiles as numeric-only.
    """
    from scipy.interpolate import PchipInterpolator

    pts = sorted((float(a), float(b)) for a, b in samples)
    if len(pts) < 4:
        raise ValueError("custom profile needs at least 4 samples")
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(np.diff(ts) <= 0):
        raise ValueError("custom sample abscissae must be strictly increasing")
    interp = PchipInterpolator(ts, vs, extrapolate=False)
    d1, d2 = interp.derivative(1), interp.derivative(2)

    def impl(t):
        return interp(t), d1(t), d2(t)

    return SigmaProfile(
        "custom", float(ts[0]), float(ts[-1]), {"samples": tuple(pts)}, impl
    )


def profile_from_json(obj) -> SigmaProfile:
    kind = obj["kind"]
    if kind == "constant":
        return constant(obj.get("c", 0.0))
    if kind == "linear":
        return linear(obj.get("shift", 0.0))
    if kind == "mabuchi_log":
        return mabuchi_log(obj.get("shift", 1.0))
    if kind == "tau_mix":
        return tau_mix(obj["tau"])
    if kind == "custom":
        return custom(obj["samples"])
    raise ValueError(f"unknown sigma kind {kind!r}")


# ---------------------------------------------------------------------------
# admissibility and growth checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    condition_i: bool  # sigma' <= 0 <= sigma''
    condition_ii: bool  # sigma'' > 0
    admissible: bool
    max_d1: float
    min_d2: float
    numeric_only: bool
    grid: tuple[float, float, int]


def _clip_range(profile: SigmaProfile, trange) -> tuple[float, float]:
    lo, hi = (trange if trange is not None else (None, None))
    a, b = profile.alpha, profile.beta
    if lo is None:
        lo = a if math.isfinite(a) else -10.0
    if hi is None:
        hi = b if math.isfinite(b) else 10.0
    scale = max(hi - lo, 1e-6)
    eps = 1e-9 * scale
    lo = max(lo, a) + eps
    hi = min(hi, b) - eps
    if not lo < hi:
        raise ValueError("empty evaluation range after clipping to the domain")
    return lo, hi


def check_admissible(
    profile: SigmaProfile, samples: int = 401, *, trange=None
) -> AdmissibilityReport:
    """Evaluate sigma', sigma'' on a grid and report which condition holds.

    ``trange`` restricts the grid (clipped to the open domain); by default
    infinite ends are clipped to +-10, which covers the compact potential
    ranges this library ever evaluates on.
    """
    lo, hi = _clip_range(profile, trange)
    ts = np.linspace(lo, hi, samples)
    _, d1, d2 = profile.evaluate(ts)
    max_d1 = float(np.max(d1))
    min_d2 = float(np.min(d2))
    # the cubic coefficients of a custom interpolant are rounded: samples of a
    # linear sigma give |sigma''| up to about 3e-10 instead of 0
    tol = 1e-7 if profile.kind == "custom" else 0.0
    cond_i = max_d1 <= tol and min_d2 >= -tol
    cond_ii = min_d2 > tol
    return AdmissibilityReport(
        condition_i=cond_i,
        condition_ii=cond_ii,
        admissible=cond_i or cond_ii,
        max_d1=max_d1,
        min_d2=min_d2,
        numeric_only=profile.kind == "custom",
        grid=(lo, hi, samples),
    )


@dataclass(frozen=True)
class GrowthReport:
    holds: bool
    a0: float | None
    argmin_t: float | None
    detail: str


def check_growth(
    profile: SigmaProfile, *, t_max: float | None = None, samples: int = 400
) -> GrowthReport:
    """Probe f(t) = exp(-sigma(t)) >= A0 (t - alpha) near alpha and beyond.

    Uses a geometric grid approaching alpha plus alpha + 1 when in range.  A0
    is the sampled minimum of f(t)/(t - alpha).  With beta = +inf the bound
    must not decay at the far end of the grid: if the minimizer sits at the
    last grid point with the ratio still strictly decreasing, no positive A0
    works on all of (alpha, beta) and the check fails.
    """
    a = profile.alpha
    if not math.isfinite(a):
        raise ValueError("growth check needs a finite left endpoint alpha")
    if t_max is None:
        t_max = a + 4.0 if not math.isfinite(profile.beta) else profile.beta
    t_max = min(t_max, profile.beta)
    span = t_max - a
    if span <= 0:
        raise ValueError("empty growth range")
    qs = np.geomspace(1e-9, 1.0, samples)
    ts = a + span * qs
    ts = ts[ts < profile.beta]
    if a + 1.0 < t_max:
        ts = np.sort(np.append(ts, a + 1.0))
    ratios = profile.f(ts) / (ts - a)
    i = int(np.argmin(ratios))
    a0 = float(ratios[i])
    if a0 <= 0:
        return GrowthReport(False, None, float(ts[i]), "f not positive on the grid")
    if not math.isfinite(profile.beta) and i == len(ts) - 1 and ratios[-1] < ratios[-2] * (1 - 1e-9):
        return GrowthReport(
            False,
            None,
            float(ts[i]),
            f"f(t)/(t-alpha) still decreasing at t={ts[i]:.6g}; no uniform A0 on (alpha, inf)",
        )
    if i == 0 and ratios[0] < ratios[1] * (1 - 1e-9):
        return GrowthReport(
            False,
            None,
            float(ts[i]),
            "f(t)/(t-alpha) vanishes toward alpha (superlinear zero); no positive A0",
        )
    return GrowthReport(True, a0, float(ts[i]), "growth bound holds on the sampled grid")

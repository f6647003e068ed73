"""Regenerate bench/references.json from independent oracles.

Every float reference here comes from mpmath quadrature (tanh-sinh, which
handles the algebraic endpoint zeros of the boundary weights) and mpmath
root finding, never from the ksm_stab quadrature layer.  Exact rational
constants (volumes, barycenters, closed forms from the acceptance criteria)
are written as strings.

Usage, from the repository root (rewrites bench/references.json):

    python3 bench/make_references.py

Takes about a minute on one core.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

HERE = Path(__file__).resolve().parent
OUT = HERE / "references.json"

# h(z) = prod (1 + <mu, z>) for the 1D instances; the dual polytope is [-1, 1]
H_1D = {
    "Z1": lambda z: 1 + z / 2,
    "Z2": lambda z: (1 + 2 * z / 3) ** 2,
    "p1-fiber": lambda z: mp.mpf(1),
}

# P2-fiber dual triangle conv{(1,1), (1,-2), (-2,1)}: z1 in [-2, 1],
# z2 in [-1 - z1, 1]; its area is 9/2 and its centroid the origin
TRI_AREA = Fraction(9, 2)


def f_tau(tau, t):
    """exp(-sigma_tau(t)) = (t + 1)^tau exp((1 - tau) t) for tau_mix."""
    if tau == 0:
        return mp.exp(t)
    # clamp the rounding residue at the vanishing endpoint t = -1
    return max(t + 1, 0) ** tau * mp.exp((1 - tau) * t)


def quad1(fn, lo, hi):
    return mp.quad(fn, [lo, hi])


def bary_h(name):
    h = H_1D[name]
    return quad1(lambda z: z * h(z), -1, 1) / quad1(h, -1, 1)


def futaki_path(name, tau, b1):
    """I_tau(b1) = int z h(z) f_tau(k(z)) dz with k(z) = b1 z - b_h b1."""
    h = H_1D[name]
    bh = bary_h(name)
    return quad1(lambda z: z * h(z) * f_tau(tau, b1 * z - bh * b1), -1, 1)


def path_interval(name):
    bh = bary_h(name)
    return -1 / (1 - bh), 1 / (1 + bh)


def path_root(name, tau):
    lo, hi = path_interval(name)
    eps = mp.mpf("1e-12")
    flo = futaki_path(name, tau, lo + eps)
    fhi = futaki_path(name, tau, hi - eps)
    if flo * fhi > 0:
        return None
    return mp.findroot(
        lambda b: futaki_path(name, tau, b), (lo + eps, hi - eps), solver="anderson"
    )


def tau0_and_grid(name):
    """Boundary Futaki value on both admissible endpoints: tau0 (lower side
    first, as find_tau0 does) and the sign changes on the 1e-3 tau grid."""
    lo, hi = path_interval(name)
    out = {}
    for side, b1 in (("lower", lo), ("upper", hi)):
        taus = [i / 1000 for i in range(1001)]
        vals = [futaki_path(name, mp.mpf(t) if t else 0, b1) for t in taus]
        changes = [
            [taus[i], taus[i + 1]]
            for i in range(1000)
            if (vals[i] > 0) != (vals[i + 1] > 0)
        ]
        entry = {
            "sign_changes": changes,
            "I_at_0": float(vals[0]),
            "I_at_1": float(vals[-1]),
        }
        if changes:
            a, b = changes[0]
            tau0 = mp.findroot(lambda t: futaki_path(name, t, b1), (a, b), solver="anderson")
            entry["tau0"] = float(tau0)
            entry["dI_dtau"] = float(mp.diff(lambda t: futaki_path(name, t, b1), tau0))
        out[side] = entry
    return out


def soliton_1d(name):
    h = H_1D[name]
    return mp.findroot(lambda c: quad1(lambda z: z * h(z) * mp.exp(-c * z), -1, 1), 1.0)


def tri_quad(fn):
    """int over the P2-fiber dual triangle of fn(z1, z2)."""
    return mp.quad(lambda x: mp.quad(lambda y: fn(x, y), [-1 - x, 1]), [-2, 1])


def soliton_b1():
    """B1 = make_ksm(1, 2, [[1/3, 0]], P2): h = 1 + z1/3; Newton on the moment
    map of Phi(c) = int h exp(-<c, z>) with exact moment Jacobian."""
    h = lambda x, y: 1 + x / 3
    c = mp.matrix([0.3, 0.0])
    for _ in range(30):
        w = lambda x, y: h(x, y) * mp.exp(-(c[0] * x + c[1] * y))
        g = mp.matrix([tri_quad(lambda x, y: x * w(x, y)), tri_quad(lambda x, y: y * w(x, y))])
        J = mp.matrix(2, 2)
        J[0, 0] = -tri_quad(lambda x, y: x * x * w(x, y))
        J[0, 1] = J[1, 0] = -tri_quad(lambda x, y: x * y * w(x, y))
        J[1, 1] = -tri_quad(lambda x, y: y * y * w(x, y))
        step = mp.lu_solve(J, -g)
        c = c + step
        if mp.norm(step) < mp.mpf("1e-22"):
            break
    # volume of the soliton field with sigma = linear(0): f(k) = exp(k),
    # k(z) = -<c, z> + <c, b_h>, b_h = (1/6, -1/12)
    cv = c[0] / 6 - c[1] / 12
    vol = tri_quad(lambda x, y: h(x, y) * mp.exp(-(c[0] * x + c[1] * y) + cv))
    return [float(c[0]), float(c[1])], float(vol)


def p2_boundary(tau):
    """g-moments on P2-fiber with c = (1/2, 1/2): k = -(z1 + z2)/2 runs from
    -1 at the vertex (1, 1) to 1/2 on the opposite edge.  The pushforward of
    area under k has density 4 (t + 1) on [-1, 1/2], and the level segment
    {k = t} has midpoint (-t, -t), so

        volume  = int f(t) 4 (t + 1) dt,
        futaki  = int f(t) 4 (t + 1) (-t) dt   (each coordinate)."""
    vol = quad1(lambda t: f_tau(tau, t) * 4 * (t + 1), -1, mp.mpf(1) / 2)
    fut = quad1(lambda t: -t * f_tau(tau, t) * 4 * (t + 1), -1, mp.mpf(1) / 2)
    return float(vol), float(fut)


def p2_boundary_direct(tau):
    """Same volume by direct 2D quadrature (cross-check of the pushforward)."""
    return float(tri_quad(lambda x, y: f_tau(tau, -(x + y) / 2)))


def ding_invariant_abs_z1(c):
    """(1/V_g) int |z| g dz for Z1 with sigma = linear(0): the Ding invariant
    of phi(z) = |z|, the slope limit of the c09 geodesic."""
    h = H_1D["Z1"]
    bh = bary_h("Z1")
    g = lambda z: h(z) * mp.exp(-c * z + c * bh)
    vol = quad1(g, -1, 1)
    return float(mp.quad(lambda z: abs(z) * g(z), [-1, 0, 1]) / vol)


def product_dual(z):
    """Legendre dual of 2 log cosh(y/2) + log 2 on [-1, 1]."""
    if abs(z) == 1:
        return mp.log(2)
    return (1 + z) * mp.log(1 + z) + (1 - z) * mp.log(1 - z) - mp.log(2)


def ding_minima() -> dict:
    """Minimum of the Ding functional for constant sigma on the bare fibers,
    where the Kaehler-Einstein potential is explicit.

    P^1 (p1-fiber): u = 2 log cosh(y/2) + log 2, D = -1 (criterion c06).
    P^1 x P^1 (square-fiber): the sum of two P^1 solutions, D = -2.
    P^2 (P2-fiber): u = 3 log sum_i exp(<v_i, y>/3) over the dual vertices v_i
    (which sum to 0) has det Hess u = 9 e^{-u}, so int e^{-u} = |P*|/9 = 1/2;
    its dual is u* = 3 sum_i l_i log l_i in barycentric coordinates, whose
    mean over P* is 9 E[l log l] = 9 (-5/18) = -5/2.  D = -5/2 + log 2."""
    v = [(1, 1), (1, -2), (-2, 1)]
    with mp.workdps(12):
        s3 = lambda x, y: sum(mp.exp((a * x + b * y) / 3) for a, b in v) ** -3
        total = mp.quad(s3, [-mp.inf, 0, mp.inf], [-mp.inf, 0, mp.inf])
    assert abs(total - mp.mpf(1) / 2) < 1e-9, total
    return {
        "p1-fiber": -1.0,
        "square-fiber": -2.0,
        "P2-fiber": float(mp.mpf(-5) / 2 + mp.log(2)),
    }


def build() -> dict:
    refs = {"generator": "bench/make_references.py", "mpmath_dps": mp.mp.dps}

    refs["tau0"] = {name: tau0_and_grid(name) for name in ("Z2", "Z1")}

    grids = {"Z1": [k / 20 for k in range(21)], "Z2": [k / 20 for k in range(13)]}
    refs["path_b1"] = {}
    for name, taus in grids.items():
        rows = {}
        for tau in taus:
            r = path_root(name, mp.mpf(tau) if tau else 0)
            rows[repr(tau)] = None if r is None else float(r)
        refs["path_b1"][name] = rows

    c_z1, c_z2 = soliton_1d("Z1"), soliton_1d("Z2")
    b1_c, b1_vol = soliton_b1()
    refs["soliton"] = {
        "Z1": [float(c_z1)],
        "Z2": [float(c_z2)],
        "P2-fiber": [0.0, 0.0],
        "B1": b1_c,
    }
    refs["volume_g"] = {
        "B1-soliton-linear0": b1_vol,
        "P2-fiber-constant0": str(TRI_AREA),
        "square-fiber-constant0": "4",
    }

    refs["p2_boundary"] = {}
    for tau in (1.0, 0.9, 0.75, 0.5, 0.25):
        vol, fut = p2_boundary(mp.mpf(tau))
        refs["p2_boundary"][repr(tau)] = {"volume_g": vol, "futaki": [fut, fut]}
    refs["p2_boundary_exact_tau1"] = {"volume_g": "9/2", "futaki": ["-9/16", "-9/16"]}

    refs["exact"] = {
        # acceptance criterion c02: Z2, sigma = mabuchi_log(1), c = 31/19
        "Z2_mabuchi_futaki": "62/855",
        # acceptance criterion c08: Z1, constant sigma, c = 0: b_g = b_h = 1/6
        # and the coordinate destabilizer has Ding invariant -1/6
        "Z1_constant_barycenter": "1/6",
        "Z1_constant_destabilizer_invariant": "-1/6",
        "Z2_boundary_k": {"plus1": "-1", "minus1": "43/19"},
    }
    refs["ding_min"] = ding_minima()
    refs["z1_soliton_abs_invariant"] = ding_invariant_abs_z1(c_z1)
    level = 9
    nodes = [mp.mpf(-1) + mp.mpf(2 * j) / 2**level for j in range(2**level + 1)]
    refs["product_dual_level9"] = [float(product_dual(z)) for z in nodes]
    return refs


def main() -> int:
    refs = build()
    # self-consistency of the pushforward formula against the exact tau = 1
    # values and a direct 2D quadrature at tau = 0.9
    b = refs["p2_boundary"]
    assert abs(b["1.0"]["volume_g"] - 4.5) < 1e-15 and abs(b["1.0"]["futaki"][0] + 0.5625) < 1e-15
    assert abs(p2_boundary_direct(mp.mpf("0.9")) - b["0.9"]["volume_g"]) < 1e-12
    OUT.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.

Criterion 9 (geodesic chord slope at T = 50 within 1e-3) is implemented
exactly as stated and is expected to fail: along u_t = (u0* + t(phi - R))*
the log term of the Ding functional carries an intrinsic log(2t)/t correction
(about 6.5e-2 at t = 50), so the chord cannot be within 1e-3 of the slope
limit at that horizon; see notes on the asymptotic rate in
test_functionals.TestGeodesics.test_slope_converges_with_log_rate, which
verifies the limit with its true convergence envelope.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ksm_stab import sigma as sg
from ksm_stab.convex import PLConvex, grid_from_values, support_grid
from ksm_stab.functionals import Functionals, g_stats, normalize_field
from ksm_stab.field_solver import find_tau0, solve_path_1d, solve_soliton
from ksm_stab.ksm import h_stats
from ksm_stab.ma_solver import minimize_ding, ode_residual_1d

from conftest import product_oracle_dual_values


def _line(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status}  {desc}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num}: {desc} ({detail})"


def test_c01_normalization_moments(z1, z2):
    hs1, hs2 = h_stats(z1), h_stats(z2)
    err = max(
        abs(hs1.ke_defect[0] - 1 / 3),
        abs(hs1.volume_h - 2.0),
        abs(hs2.ke_defect[0] - 8 / 9),
        abs(hs2.volume_h - 62 / 27),
    )
    _line(1, err <= 1e-12, "h-moment integrals for Z1 and Z2", f"max err {err:.2e}")


def test_c02_boundary_futaki_values(z2):
    fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
    f1 = g_stats(z2, sg.mabuchi_log(1.0), fld).reduced_futaki[0]
    err1 = abs(f1 - 62 / 855)
    f0 = g_stats(z2, sg.tau_mix(0.0), fld).reduced_futaki[0]
    closed = 19 / (9 * 31**4) * (-2268214 * math.exp(-31 / 19) + 80048 * math.exp(31 / 19))
    # the reference closed form factors out the positive constant e^{C_V}
    err0 = abs(f0 * math.exp(-fld.C_V) - closed)
    ok = err1 <= 1e-9 and err0 <= 1e-9 and f0 < 0
    _line(2, ok, "Z2 boundary Futaki values (sigma_1 and sigma_0)",
          f"errs {err1:.2e}, {err0:.2e}; sign {'-' if f0 < 0 else '+'}")


@pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_c03_z1_tau_path_roots(z1, tau):
    rep = solve_path_1d(z1, tau)
    b2 = rep.diagnostics.get("b2")
    ev = rep.diagnostics["endpoint_values"]
    ok = (
        rep.success
        and rep.residual <= 1e-11
        and -1 / 7 < b2 < 1 / 5
        and ev["upper"] > 0  # I_tau at b2 = -1/7
        and ev["lower"] < 0  # I_tau at b2 = 1/5
    )
    _line(3, ok, f"Z1 tau-path root at tau={tau}",
          f"b2 {b2:.10f}, |I| {rep.residual:.1e}")


def test_c04_z2_tau0(z2):
    tau0, rep = find_tau0(z2)
    ks = dict(zip([float(v[0]) for v in z2.dual().vertices],
                  rep.diagnostics["lower"]["boundary_k"]))
    ok = (
        rep.success
        and 0 < tau0 < 1
        and rep.residual <= 1e-11
        and ks[1.0] == Fraction(-1)
        and ks[-1.0] == Fraction(43, 19)
    )
    _line(4, ok, "Z2 boundary root tau0 with exact potentials",
          f"tau0 {tau0:.10f}, |I| {rep.residual:.1e}, k(1)={ks[1.0]}, k(-1)={ks[-1.0]}")


def test_c05_vertex_count_identity(p1_fiber, square_fiber, p2_fiber):
    errs = []
    for data, n0 in ((p1_fiber, 2), (square_fiber, 4), (p2_fiber, 3)):
        total = support_grid(data.dual()).exp_integral()["total"]
        errs.append(abs(total - n0))
    ok = max(errs) <= 1e-6
    _line(5, ok, "vertex-count identity int e^{-v_{P*}} = N0",
          "errs " + ", ".join(f"{e:.1e}" for e in errs))


def test_c06_product_monge_ampere_oracle(product_fn):
    sol = minimize_ding(product_fn)
    ys = np.linspace(-6, 6, 1201).reshape(-1, 1)
    exact = 2 * np.log(np.cosh(ys[:, 0] / 2)) + np.log(2)
    sup_err = float(np.max(np.abs(sol.u.primal_value(ys) - exact)))
    oracle = grid_from_values(
        product_fn.dual, lambda zs: product_oracle_dual_values(zs[:, 0])
    )
    res = ode_residual_1d(oracle, product_fn)
    ok = abs(sol.ding_value + 1.0) <= 1e-3 and sup_err <= 1e-2 and res <= 1e-3
    _line(6, ok, "product-case Monge-Ampere oracle",
          f"D {sol.ding_value:.6f}, sup|u-u*| {sup_err:.2e}, ODE residual {res:.2e}")


def test_c07_soliton_pipeline(z1, z2):
    details = []
    ok = True
    for data in (z1, z2):
        rep = solve_soliton(data)
        fld = normalize_field(list(rep.coefficients), h_stats(data), data.dual())
        fn = Functionals(data, sg.linear(0.0), fld)
        bnorm = float(np.linalg.norm(fn.gstats.barycenter_g))
        sol = minimize_ding(fn)
        ok = ok and rep.success and bnorm <= 1e-10 and sol.residual_tv <= 1e-4
        details.append(f"{data.label}: ||b_g|| {bnorm:.1e}, residual {sol.residual_tv:.1e}")
    _line(7, ok, "soliton pipeline on Z1 and Z2", "; ".join(details))


def _random_rational_pl(rng, dim):
    n_pieces = int(rng.integers(2, 6))
    pieces = []
    for _ in range(n_pieces):
        a = tuple(
            Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 3)))
            for _ in range(dim)
        )
        b = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 3)))
        pieces.append((a, b))
    return PLConvex.make(pieces)


def test_c08_jensen_stability_suite(z1_soliton_fn, p2_fiber, unstable_z1_fn):
    rng = np.random.default_rng(2024)
    fld2 = normalize_field([0, 0], h_stats(p2_fiber), p2_fiber.dual())
    fn2 = Functionals(p2_fiber, sg.constant(0.0), fld2)
    worst = math.inf
    for fn, count in ((z1_soliton_fn, 50), (fn2, 50)):
        assert float(np.linalg.norm(fn.gstats.barycenter_g)) <= 1e-8
        for _ in range(count):
            phi = _random_rational_pl(rng, fn.data.fiber_dimension)
            worst = min(worst, fn.ding_invariant(phi))
    curated = [
        PLConvex.make([((1,), 0), ((-1,), 0)]),
        PLConvex.make([((1,), Fraction(-1, 4)), ((-1,), Fraction(1, 4))]),
        PLConvex.make([((1,), Fraction(1, 2)), ((-1,), Fraction(-1, 2))]),
        PLConvex.make([((0,), 0), ((1,), 0)]),
        PLConvex.make([((0,), 0), ((-1,), 0)]),
        PLConvex.make([((2,), 0), ((-1,), 0)]),
        PLConvex.make([((1,), 0), ((Fraction(-1, 2),), Fraction(1, 8))]),
        PLConvex.make([((3,), -1), ((-3,), -1), ((0,), 0)]),
        PLConvex.make([((0,), 0), ((2,), -1), ((-2,), -1)]),
        PLConvex.make([((4,), -2), ((-4,), -2), ((1,), 0), ((-1,), 0)]),
    ]
    min_curated = min(z1_soliton_fn.ding_invariant(phi) for phi in curated)
    dest = unstable_z1_fn.ding_invariant(PLConvex.make([((-1,), 0)]))
    ok = worst >= -1e-8 and min_curated > 1e-4 and abs(dest + 1 / 6) <= 1e-10
    _line(8, ok, "Jensen/stability property suite (100 random + curated + destabilizer)",
          f"min random {worst:.2e}, min curated {min_curated:.2e}, destabilizer {dest:.12f}")


def test_c09_geodesic_slope_at_t50(z1_soliton_fn):
    # faithful to the stated criterion; expected red (see module docstring)
    fn = z1_soliton_fn
    sol = minimize_ding(fn)
    u0 = sol.u
    phi = PLConvex.make([((1,), 0), ((-1,), 0)], offset=1)
    inv = fn.ding_invariant(phi)
    T = 50.0
    DT = fn.ding(fn.geodesic_point(u0, phi, T))
    err = abs((DT - fn.ding(u0)) / T - inv)
    _line(9, err <= 1e-3, "geodesic chord slope at T=50 within 1e-3",
          f"measured gap {err:.4e} ~ log(2T)/T; see decisions ledger")


def test_geodesic_chord_closed_form_at_t50(z1_soliton_fn):
    # u_T* = u_0* + T|z| kinks only at the node z = 0, whose primal segment
    # grows by 2T with u_T = -u_0*(0) on it; every other cell is translated.
    # So int exp(-u_T) = V + 2T exp(u_0*(0)), V = |P*|_g, and the chord
    # falls short of the invariant by exactly log1p(aT)/T, a = 2 exp(u_0*(0))/V
    fn = z1_soliton_fn
    u0 = minimize_ding(fn).u
    phi = PLConvex.make([((1,), 0), ((-1,), 0)], offset=1)
    T = 50.0
    chord = (fn.ding(fn.geodesic_point(u0, phi, T)) - fn.ding(u0)) / T
    a = 2 * math.exp(u0.values[np.flatnonzero(u0.nodes[:, 0] == 0.0)[0]]) / fn.gstats.volume_g
    assert chord == pytest.approx(fn.ding_invariant(phi) - math.log1p(a * T) / T, rel=0, abs=1e-13)


def test_c10_sandwich_and_translation(z1_soliton_fn, product_fn):
    rng = np.random.default_rng(77)
    fn = z1_soliton_fn
    lo = fn.hstats.volume_h * fn.gstats.A / fn.gstats.volume_g
    hi = fn.hstats.volume_h * fn.gstats.B / fn.gstats.volume_g
    min_slack = math.inf
    for _ in range(50):
        sl = rng.uniform(-2.5, 2.5, size=(5, 1))
        off = rng.uniform(-1, 1, size=5)
        u = grid_from_values(fn.dual, lambda zs: np.max(zs @ sl.T + off, axis=1))
        jr, js = fn.j_red(u), fn.j_sigma(u)
        min_slack = min(min_slack, js - lo * jr, hi * jr - js)
    max_shift = 0.0
    for f in (fn, product_fn):
        base = grid_from_values(
            f.dual, lambda zs: np.max(zs @ rng.uniform(-2, 2, (4, 1)).T + rng.uniform(-1, 1, 4), axis=1)
        )
        D0 = f.ding(base)
        for _ in range(10):
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            shifted = base.with_values(base.values + a * base.nodes[:, 0] + b)
            max_shift = max(max_shift, abs(f.ding(shifted) - D0))
    ok = min_slack >= -1e-9 and max_shift <= 1e-8
    _line(10, ok, "J sandwich (50 random) and affine-translation invariance of D",
          f"min slack {min_slack:.2e}, max |D shift| {max_shift:.2e}")


def test_c11_nonreproducible_content_covered(z2_tau0):
    # the cited existence/regularity theorems are not desk-verifiable; the
    # artifact covers them by residual-certified weak solutions plus
    # empirical regularity reports on the non-uniform instance
    tau0, fn = z2_tau0
    sol = minimize_ding(fn)
    reg = sol.regularity
    ok = (
        sol.residual_tv <= 1e-3
        and reg["zero_set_dim"] == 0
        and reg["dim_criterion_ok"]
        and all(np.isfinite(v) for v in reg["holder_moduli"].values())
    )
    _line(11, ok, "existence/regularity theorems covered by property suites",
          f"weak residual {sol.residual_tv:.1e}, zero-set dim {reg['zero_set_dim']}, "
          f"Hoelder modulus (gamma=0.5) {reg['holder_moduli']['0.5']:.3f}")

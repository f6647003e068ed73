from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from ksm_stab import sigma as sg
from ksm_stab.field_solver import (
    find_tau0,
    path_interval_1d,
    solve_general,
    solve_path_1d,
    solve_soliton,
)
from ksm_stab.functionals import Functionals, g_stats, normalize_field
from ksm_stab.ksm import h_stats, h_values
from ksm_stab.polytope import integrate


def bisection_soliton_oracle(data):
    """Independent 1D root of int z h e^{-c z} dz via dense Gauss + brentq."""
    x, w = leggauss(240)

    def F(c):
        h = h_values(data, x.reshape(-1, 1))
        return float(np.sum(w * x * h * np.exp(-c * x)))

    return brentq(F, -5.0, 5.0, xtol=1e-14)


class TestSoliton:
    def test_symmetric_fibers_give_zero(self, p1_fiber, p2_fiber, square_fiber):
        for data in (p1_fiber, p2_fiber, square_fiber):
            rep = solve_soliton(data)
            assert rep.success
            assert np.linalg.norm(rep.coefficients) < 1e-12

    def test_z1_against_bisection_oracle(self, z1):
        rep = solve_soliton(z1)
        assert rep.success
        assert rep.coefficients[0] == pytest.approx(bisection_soliton_oracle(z1), abs=1e-10)
        assert rep.coefficients[0] > 0  # defect 1/3 > 0 brackets the root right of 0

    def test_z2_against_bisection_oracle(self, z2):
        rep = solve_soliton(z2)
        assert rep.coefficients[0] == pytest.approx(bisection_soliton_oracle(z2), abs=1e-10)

    def test_residual_is_barycenter(self, z1):
        rep = solve_soliton(z1)
        fld = normalize_field(list(rep.coefficients), h_stats(z1), z1.dual())
        gs = g_stats(z1, sg.linear(0.0), fld)
        assert np.linalg.norm(gs.barycenter_g) <= 1e-10

    def test_objective_convex_along_lines(self, z2):
        # second directional differences of Phi(c) = int h e^{-cz} stay >= 0
        dual = z2.dual()

        def phi(c):
            return integrate(dual, lambda zs: h_values(z2, zs) * np.exp(-c * zs[:, 0]))

        rng = np.random.default_rng(0)
        for _ in range(5):
            c0, d = rng.uniform(-1, 1), rng.uniform(0.1, 0.5)
            assert phi(c0 + d) - 2 * phi(c0) + phi(c0 - d) >= -1e-12


class TestPath:
    def test_intervals_exact(self, z1, z2):
        assert path_interval_1d(z1) == (Fraction(-6, 5), Fraction(6, 7))
        assert path_interval_1d(z2) == (Fraction(-31, 19), Fraction(31, 43))

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_z1_roots_certified(self, z1, tau):
        rep = solve_path_1d(z1, tau)
        assert rep.success
        assert rep.residual <= 1e-11
        b2 = rep.diagnostics["b2"]
        assert -1 / 7 < b2 < 1 / 5
        ev = rep.diagnostics["endpoint_values"]
        # b2 = -1/7 is the upper b1 endpoint, b2 = 1/5 the lower one
        assert ev["upper"] > 0 and ev["lower"] < 0

    def test_z1_mabuchi_root_is_one_eleventh(self, z1):
        rep = solve_path_1d(z1, 1.0)
        assert rep.diagnostics["b2"] == pytest.approx(1 / 11, abs=1e-10)

    def test_tau_zero_matches_soliton(self, z1):
        # sigma_{tau=0} is the Kaehler-Ricci case restricted to (-1, inf)
        rep = solve_path_1d(z1, 0.0)
        sol = solve_soliton(z1)
        assert -rep.diagnostics["b1"] == pytest.approx(sol.coefficients[0], abs=1e-10)

    def test_z2_mabuchi_has_no_interior_root(self, z2):
        rep = solve_path_1d(z2, 1.0)
        assert not rep.success
        ev = rep.diagnostics["endpoint_values"]
        assert ev["lower"] == pytest.approx(62 / 855, abs=1e-12)
        assert ev["upper"] < 0 or ev["lower"] > 0  # no sign change

    def test_root_insensitive_to_quadrature_tolerance(self, z1):
        r1 = solve_path_1d(z1, 0.5, tol=1e-11)
        r2 = solve_path_1d(z1, 0.5, tol=1e-13)
        assert abs(r1.diagnostics["b1"] - r2.diagnostics["b1"]) < 1e-9


class TestTau0:
    def test_z2_boundary_root(self, z2):
        tau0, rep = find_tau0(z2)
        assert rep.success
        assert 0 < tau0 < 1
        assert rep.residual <= 1e-11
        assert rep.diagnostics["side"] == "lower"
        # first sign change on the 1e-3 grid brackets the certified root
        lo, hi = rep.diagnostics["lower"]["sign_changes"][0]
        assert lo <= tau0 <= hi
        # the root is driven to rounding: the 30-digit mpmath value of
        # bench/references.json, not just to |I| <= 1e-11 (tau0 to 5e-11)
        assert tau0 == pytest.approx(0.6139203442022751, abs=1e-13)

    def test_z2_boundary_potentials_exact(self, z2):
        _, rep = find_tau0(z2)
        ks = rep.diagnostics["lower"]["boundary_k"]
        assert set(ks) == {Fraction(-1), Fraction(43, 19)}

    def test_z1_no_boundary_root(self, z1):
        tau0, rep = find_tau0(z1)
        assert tau0 is None
        assert "no boundary root" in rep.message
        # endpoint sign pattern: I > 0 at b2 = -1/7 (upper b1), I < 0 at 1/5
        up = rep.diagnostics["upper"]
        lo = rep.diagnostics["lower"]
        assert up["I_at_0"] > 0 and up["I_at_1"] > 0
        assert lo["I_at_0"] < 0 and lo["I_at_1"] < 0

    def test_symmetric_fiber_no_root(self, p1_fiber):
        tau0, rep = find_tau0(p1_fiber)
        assert tau0 is None


class TestGeneral:
    def test_matches_soliton_on_linear_profile(self, z1):
        rep = solve_general(z1, sg.linear(0.0), [0.0])
        sol = solve_soliton(z1)
        assert rep.success
        assert rep.coefficients[0] == pytest.approx(sol.coefficients[0], abs=1e-8)

    def test_matches_path_on_mabuchi(self, z1):
        rep = solve_general(z1, sg.mabuchi_log(1.0), [0.0])
        path = solve_path_1d(z1, 1.0)
        assert rep.success
        assert rep.coefficients[0] == pytest.approx(-path.diagnostics["b1"], abs=1e-8)

    def test_z2_mabuchi_boundary_obstruction(self, z2):
        rep = solve_general(z2, sg.mabuchi_log(1.0), [0.0])
        assert not rep.success
        assert "boundary obstruction" in rep.message
        assert rep.coefficients is not None  # last iterate reported

    def test_solution_passes_verdict(self, z1):
        from ksm_stab.functionals import stability_verdict

        rep = solve_general(z1, sg.tau_mix(0.5), [0.0])
        fld = normalize_field(list(rep.coefficients), h_stats(z1), z1.dual())
        prof = sg.tau_mix(0.5)
        gs = g_stats(z1, prof, fld)
        assert stability_verdict(gs, prof, fld, z1).polystable

    def test_rejects_inadmissible_start(self, z1):
        with pytest.raises(ValueError):
            solve_general(z1, sg.mabuchi_log(1.0), [6.0])  # k range [-5, 7]

    def test_2d_symmetric(self, p2_fiber):
        rep = solve_general(p2_fiber, sg.linear(0.0), [0.1, -0.1])
        assert rep.success
        assert np.linalg.norm(rep.coefficients) < 1e-8


def test_report_json_serializable(z1):
    import json

    rep = solve_path_1d(z1, 0.5)
    assert json.dumps(rep.to_json())


@pytest.fixture(scope="module")
def b1():
    """(1,2)-dimensional instance: one curvature vector over the P2 fiber."""
    from ksm_stab.ksm import make_ksm

    return make_ksm(1, 2, [["1/3", "0"]], [(1, 0), (0, 1), (-1, -1)], "B1")


class TestAsymmetric2D:

    def test_soliton_balances_barycenter(self, b1):
        rep = solve_soliton(b1)
        assert rep.success
        assert np.linalg.norm(rep.coefficients) > 1e-3  # genuinely asymmetric
        fld = normalize_field(list(rep.coefficients), h_stats(b1), b1.dual())
        gs = g_stats(b1, sg.linear(0.0), fld)
        assert np.linalg.norm(gs.barycenter_g) <= 1e-10

    def test_jensen_and_metric(self, b1):
        from ksm_stab.convex import PLConvex
        from ksm_stab.ma_solver import minimize_ding

        rep = solve_soliton(b1)
        fld = normalize_field(list(rep.coefficients), h_stats(b1), b1.dual())
        fn = Functionals(b1, sg.linear(0.0), fld)
        phi = PLConvex.make([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
        assert fn.ding_invariant(phi) > 1e-3  # strict Jensen gap, non-affine
        sol = minimize_ding(fn, level=4, tol_tv=2e-3, max_iter=400)
        assert sol.residual_tv <= 2e-3
        res = sol.u.exp_integral(full=True)
        assert res["total"] == pytest.approx(fn.gstats.volume_g, rel=1e-2)

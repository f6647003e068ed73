from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import roots_jacobi

from ksm_stab import sigma as sg
from ksm_stab.field_solver import (
    _moments,
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

    @pytest.mark.parametrize("solve", [
        lambda d: solve_path_1d(d, 0.5),
        lambda d: find_tau0(d, boundary="lower", grid_step=0.1),
    ], ids=["path", "tau0"])
    def test_one_h_stats_per_solve(self, z2, monkeypatch, solve):
        import ksm_stab.field_solver as fs

        calls = []

        def counted(data):
            calls.append(data)
            return h_stats(data)

        monkeypatch.setattr(fs, "h_stats", counted)
        solve(z2)
        assert len(calls) == 1

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

    @pytest.mark.parametrize("name,sides", [("Z2", 1), ("Z1", 2)])
    def test_one_boundary_field_per_side(self, request, monkeypatch, name, sides):
        # the grid and Brent share the side's field: Z2 stops at its lower
        # root, Z1 tries both sides
        import ksm_stab.field_solver as fs

        calls = []

        def counted(*args):
            calls.append(args)
            return normalize_field(*args)

        monkeypatch.setattr(fs, "normalize_field", counted)
        find_tau0(request.getfixturevalue(name.lower()))
        assert len(calls) == sides

    def test_jacobi_rules_built_once_per_exponent(self, z1, z2, monkeypatch):
        # the 1,000 tau > 0 of the grid need 1,000 Gauss-Jacobi rules; Z1
        # reuses the ones Z2 built, and Brent adds a few dozen
        import ksm_stab.functionals as fn

        calls = []

        def counted(*args):
            calls.append(args)
            return roots_jacobi(*args)

        fn._gauss01.cache_clear()
        monkeypatch.setattr(fn, "roots_jacobi", counted)
        find_tau0(z2)
        find_tau0(z1)
        assert len(calls) <= 1100


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
        prof = sg.mabuchi_log(1.0)
        rep = solve_general(z2, prof, [0.0])
        assert not rep.success
        assert "boundary obstruction" in rep.message
        assert rep.coefficients is not None  # last iterate reported
        # the residual is ||F|| / vol, as on every other exit
        fld = normalize_field(list(rep.coefficients), h_stats(z2), z2.dual())
        vol = g_stats(z2, prof, fld).volume_g
        fut = np.linalg.norm(rep.diagnostics["last_futaki"])
        assert rep.residual == pytest.approx(fut / vol, rel=1e-12)
        assert abs(vol - 1.0) > 0.1

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

    @pytest.mark.parametrize("case", ["tau0.1", "tau0.5", "mabuchi", "pchip", "B1-linear"])
    def test_jacobian_against_centered_differences(self, request, case):
        data = request.getfixturevalue("b1" if case == "B1-linear" else "z1")
        prof = {
            "tau0.1": sg.tau_mix(0.1),
            "tau0.5": sg.tau_mix(0.5),
            "mabuchi": sg.mabuchi_log(1.0),
            "pchip": _pchip_tau_mix_half(),
            "B1-linear": sg.linear(0.0),
        }[case]
        c = np.array([0.2, -0.1] if case == "B1-linear" else [0.3])
        hs = h_stats(data)

        def moments(c):
            fld = normalize_field(list(c), hs, data.dual())
            return _moments(data, prof, fld, hs.barycenter_h)

        J = moments(c)[2]
        fd = np.empty_like(J)
        for j in range(len(c)):
            e = np.zeros(len(c))
            e[j] = 1e-5
            fd[:, j] = (moments(c + e)[1] - moments(c - e)[1]) / 2e-5
        # the differences agree to 7e-12 - 4e-11 relative
        assert np.linalg.norm(J - fd) <= 1e-6 * np.linalg.norm(J)

    @pytest.mark.parametrize("name,prof,c0", [
        ("z1", sg.tau_mix(0.5), [0.0]),
        ("b1", sg.linear(0.0), [0.0, 0.0]),
        ("z2", sg.mabuchi_log(1.0), [0.0]),
    ], ids=["Z1-tau0.5", "B1-linear", "Z2-mabuchi"])
    def test_one_pushforward_call_per_trial(self, request, monkeypatch, name, prof, c0):
        # every admissible trial takes one g_integral call for F, J and vol,
        # and the start takes one; the admissibility test builds the field of
        # every trial
        import ksm_stab.field_solver as fs

        calls = {"g": 0, "field": 0}

        def counted(key, f):
            def wrapped(*args):
                calls[key] += 1
                return f(*args)

            return wrapped

        monkeypatch.setattr(fs, "g_integral", counted("g", fs.g_integral))
        monkeypatch.setattr(fs, "normalize_field", counted("field", fs.normalize_field))
        rep = solve_general(request.getfixturevalue(name), prof, c0)
        if rep.success:
            # full Newton steps from the start: one trial per iteration
            assert calls["g"] == calls["field"] == rep.iterations + 1
        else:
            assert "boundary obstruction" in rep.message
            assert calls["g"] <= calls["field"]

    def test_pchip_profile_matches_tau_mix_root(self, z1):
        ref, prof = sg.tau_mix(0.5), _pchip_tau_mix_half()
        rep_ref = solve_general(z1, ref, [0.0])
        rep = solve_general(z1, prof, [0.0])
        assert rep.success and rep.iterations == rep_ref.iterations
        # the root moves by at most the interpolation error of sigma on the
        # root field's k range (2.1e-8; the measured shift is 2.6e-10)
        fld = normalize_field(list(rep_ref.coefficients), h_stats(z1), z1.dual())
        ts = np.linspace(fld.k_min, fld.k_max, 10_001)
        err = float(np.max(np.abs(prof(ts) - ref(ts))))
        assert abs(rep.coefficients[0] - rep_ref.coefficients[0]) <= err


def _pchip_tau_mix_half():
    """A custom (PCHIP) profile sampled from tau_mix(0.5) at 400 points."""
    ts = np.linspace(-0.95, 2.0, 400)
    return sg.custom(list(zip(ts, sg.tau_mix(0.5).evaluate(ts)[0])))


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

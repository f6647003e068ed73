import math

import numpy as np
import pytest

from ksm_stab import ma_solver
from ksm_stab import sigma as sg
from ksm_stab.convex import dual_grid_geometry, grid_from_values, support_grid
from ksm_stab.functionals import Functionals, normalize_field
from ksm_stab.ksm import h_stats
from ksm_stab.ma_solver import (
    LSE_CLIP,
    UnstableInputError,
    _half_lattice,
    _lse_conjugate,
    alexandrov_measure,
    build_subsolution,
    initial_grid,
    minimize_ding,
    ode_residual_1d,
)

from conftest import product_oracle_dual_values


@pytest.fixture(scope="module")
def product_solution(product_fn):
    return minimize_ding(product_fn)


@pytest.fixture(scope="module")
def z1_solution(z1_soliton_fn):
    return minimize_ding(z1_soliton_fn)


def _lse_conjugate_mp(points, z, dps=30):
    """mpmath oracle for _lse_conjugate: damped Newton with the covariance
    taken about the mean (no cancellation), the same step limit and clip,
    run until the gain of a step is below 1e-28."""
    import mpmath as mp

    with mp.workdps(dps):
        P = [[mp.mpf(float(c)) for c in a] for a in points]
        z = [mp.mpf(float(c)) for c in z]
        l = len(z)
        y = [mp.mpf(0)] * l

        def lse_moments(y):
            e = [mp.exp(mp.fsum(a[i] * y[i] for i in range(l))) for a in P]
            S = mp.fsum(e)
            w = [x / S for x in e]
            g = [mp.fsum(w[j] * P[j][i] for j in range(len(P))) for i in range(l)]
            return mp.log(S), w, g

        for _ in range(400):
            _, w, g = lse_moments(y)
            H = mp.matrix(l, l)
            for i in range(l):
                for k in range(l):
                    H[i, k] = mp.fsum(w[j] * (P[j][i] - g[i]) * (P[j][k] - g[k]) for j in range(len(P)))
            r = [z[i] - g[i] for i in range(l)]
            dy = mp.lu_solve(H, mp.matrix(r))
            f = min(mp.mpf(1), 5 / mp.norm(dy)) if mp.norm(dy) > 0 else 1
            y_new = [min(mp.mpf(LSE_CLIP), max(-mp.mpf(LSE_CLIP), y[i] + f * dy[i])) for i in range(l)]
            gain = mp.fsum(r[i] * (y_new[i] - y[i]) for i in range(l))
            y = y_new
            if gain < mp.mpf(10) ** -28:
                break
        else:
            raise AssertionError("mpmath oracle did not converge")
        return float(mp.fsum(y[i] * z[i] for i in range(l)) - lse_moments(y)[0])


class TestLseConjugate:
    @pytest.mark.parametrize("level", [9, 14])
    def test_1d_closed_form(self, p1_fiber, level):
        # points {-1, 0, 1}: the maximizer solves (1 - z) x^2 - z x - (1 + z) = 0
        # in x = e^y; at z = +-1 the supremum 0 is approached as |y| -> inf,
        # and the clipped one lies within e^-80 of it
        dual = p1_fiber.dual()
        z = dual_grid_geometry(dual, level).nodes[:, 0]
        got = _lse_conjugate(dual.lattice_array, z[:, None])
        want = np.zeros_like(z)
        zi = z[np.abs(z) < 1]
        y = np.log((zi + np.sqrt(zi**2 + 4 * (1 - zi**2))) / (2 * (1 - zi)))
        want[np.abs(z) < 1] = zi * y - np.log(np.exp(y) + 1 + np.exp(-y))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert got[0] == got[-1] == 0.0

    @pytest.mark.parametrize("name", ["P2-fiber", "square-fiber"])
    @pytest.mark.parametrize("points", ["lattice", "half-lattice"])
    def test_2d_mpmath_oracle(self, request, name, points):
        data = request.getfixturevalue(name.replace("-", "_").replace("P2_fiber", "p2_fiber"))
        dual = data.dual()
        P = dual.lattice_array if points == "lattice" else _half_lattice(dual)
        geom = dual_grid_geometry(dual, 6)
        inside = np.all(dual.normal_array @ geom.nodes.T < 1 - 1e-12, axis=0)
        rng = np.random.default_rng(6)
        rows = np.concatenate(
            [rng.choice(np.nonzero(inside)[0], 12, replace=False), geom.vertex_node_indices]
        )
        got = _lse_conjugate(P, geom.nodes[rows])
        want = [_lse_conjugate_mp(P, geom.nodes[i]) for i in rows]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_unconverged_row_raises(self, p2_fiber, monkeypatch):
        # vertex rows creep toward the clip and need far more than 3 steps
        monkeypatch.setattr(ma_solver, "LSE_MAX_STEPS", 3)
        dual = p2_fiber.dual()
        with pytest.raises(RuntimeError, match="unconverged"):
            _lse_conjugate(dual.lattice_array, dual.vertex_array)


class TestProductOracle:
    def test_ding_minimum(self, product_solution):
        assert product_solution.ding_value == pytest.approx(-1.0, abs=1e-3)
        assert product_solution.converged

    def test_potential_matches_analytic(self, product_solution):
        ys = np.linspace(-6, 6, 1201).reshape(-1, 1)
        exact = 2 * np.log(np.cosh(ys[:, 0] / 2)) + np.log(2)
        got = product_solution.u.primal_value(ys)
        assert float(np.max(np.abs(got - exact))) <= 1e-2

    def test_normalization_identity(self, product_solution, product_fn):
        res = product_solution.u.exp_integral(full=True)
        assert res["total"] == pytest.approx(product_fn.gstats.volume_g, rel=1e-10)

    def test_oracle_cell_masses_match_weights(self, product_fn):
        # substitution check: on the analytic solution the exp(-u) mass of
        # every subgradient cell matches its g hat mass (the weak equation)
        u = grid_from_values(
            product_fn.dual, lambda zs: product_oracle_dual_values(zs[:, 0])
        )
        res = u.exp_integral(full=True)
        mhat = res["masses"] / np.sum(res["masses"])
        wg = product_fn.hat_weights(u.geom, "g")
        what = wg / np.sum(wg)
        assert float(np.max(np.abs(mhat - what))) <= 1e-3

    def test_alexandrov_tracks_density(self, product_solution, product_fn):
        # Kolmogorov distance between the Alexandrov measure and the exp(-u)
        # distribution; bounds every per-cell mismatch by twice its value
        from scipy.integrate import cumulative_trapezoid

        am = alexandrov_measure(product_solution.u, product_fn)
        assert am.total == pytest.approx(1.0, abs=1e-6)
        ys = am.points[:, 0]
        h = ys[1] - ys[0]
        res = product_solution.u.exp_integral(full=True)
        grid = np.linspace(ys[0], ys[-1] + h, 200001)
        uv = product_solution.u.primal_value(grid.reshape(-1, 1))
        F_dens = cumulative_trapezoid(np.exp(-uv), grid, initial=0.0) + np.exp(-uv[0])
        F_want = np.interp(ys + h / 2, grid, F_dens) / res["total"]
        ks = float(np.max(np.abs(np.cumsum(am.masses) - F_want)))
        assert ks <= 2e-3

    def test_descent_from_reference(self, product_fn, product_solution):
        D_init = product_fn.ding(initial_grid(product_fn))
        assert product_solution.ding_value <= D_init + 1e-12


class TestOdeResidual:
    def test_oracle_satisfies_equation(self, product_fn):
        g = grid_from_values(
            product_fn.dual, lambda zs: product_oracle_dual_values(zs[:, 0])
        )
        assert ode_residual_1d(g, product_fn) <= 1e-3

    def test_reference_potential_is_not_solution(self, product_fn):
        assert ode_residual_1d(initial_grid(product_fn), product_fn) > 0.5

    def test_refinement_monotone(self, product_fn):
        vals = []
        for level in (8, 9, 10):
            g = grid_from_values(
                product_fn.dual,
                lambda zs: product_oracle_dual_values(zs[:, 0]),
                level=level,
            )
            vals.append(ode_residual_1d(g, product_fn))
        assert vals[1] <= vals[0] * 1.1
        assert vals[2] <= vals[1] * 1.1


class TestSolitonPipeline:
    def test_z1(self, z1_solution, z1_soliton_fn):
        assert z1_solution.converged
        assert z1_solution.residual_tv <= 1e-4
        assert z1_solution.mode == "uniform"
        res = z1_solution.u.exp_integral(full=True)
        assert res["total"] == pytest.approx(z1_soliton_fn.gstats.volume_g, rel=1e-8)

    def test_z2(self, z2_soliton_fn):
        sol = minimize_ding(z2_soliton_fn)
        assert sol.converged and sol.residual_tv <= 1e-4

    def test_pushforward_barycenter_vanishes(self, z1_solution):
        res = z1_solution.u.exp_integral(full=True)
        m = res["masses"] / np.sum(res["masses"])
        bg = float(m @ z1_solution.u.nodes[:, 0])
        assert abs(bg) <= 1e-4

    def test_coverage(self, z1_solution):
        assert z1_solution.gradient_image_coverage == pytest.approx(1.0, abs=1e-6)

    def test_unstable_refused(self, unstable_z1_fn):
        with pytest.raises(UnstableInputError) as err:
            minimize_ding(unstable_z1_fn)
        assert err.value.verdict.status == "unstable"


class TestNonUniform:
    def test_weak_solution(self, z2_tau0):
        _, fn = z2_tau0
        sol = minimize_ding(fn)
        assert sol.mode == "non_uniform"
        assert sol.residual_tv <= 1e-3
        reg = sol.regularity
        assert reg["zero_set_vertices"] == [[1.0]]
        assert reg["zero_set_dim"] == 0
        assert reg["dim_criterion_ok"]  # 0 <= l/2 = 1/2
        assert "smooth" in reg["note"]
        assert all(np.isfinite(v) for v in reg["holder_moduli"].values())

    def test_mass_identity_weak(self, z2_tau0):
        _, fn = z2_tau0
        sol = minimize_ding(fn)
        res = sol.u.exp_integral(full=True)
        assert res["total"] == pytest.approx(fn.gstats.volume_g, rel=1e-4)


class TestAlexandrov:
    def test_support_function_point_mass(self, product_fn):
        am = alexandrov_measure(support_grid(product_fn.dual), product_fn)
        i = int(np.argmax(am.masses))
        assert am.points[i, 0] == pytest.approx(0.0, abs=1e-12)
        assert am.masses[i] == pytest.approx(1.0, abs=1e-9)
        assert am.total == pytest.approx(1.0, abs=1e-6)

    def test_total_mass_one_random(self, z1_soliton_fn):
        rng = np.random.default_rng(9)
        for _ in range(5):

            def vals(zs):
                sl = rng.uniform(-1.5, 1.5, size=(4, 1))
                off = rng.uniform(-1, 1, size=4)
                return np.max(zs @ sl.T + off, axis=1)

            u = grid_from_values(z1_soliton_fn.dual, vals)
            am = alexandrov_measure(u, z1_soliton_fn)
            assert am.total == pytest.approx(1.0, abs=1e-13)

    def test_2d_facet_measure(self, p2_fiber):
        fld = normalize_field([0, 0], h_stats(p2_fiber), p2_fiber.dual())
        fn = Functionals(p2_fiber, sg.constant(0.0), fld)
        u = support_grid(p2_fiber.dual(), level=4)
        am = alexandrov_measure(u, fn)
        assert am.total == pytest.approx(1.0, abs=1e-6)
        assert np.all(am.masses >= 0)

    def test_nonconvex_rejected(self, product_fn):
        g = support_grid(product_fn.dual)
        bad = g.with_values(np.cos(9 * g.nodes[:, 0]))
        with pytest.raises(ValueError):
            alexandrov_measure(bad, product_fn)


class TestSubsolution:
    def test_nonuniform_constant_window_stable(self, z2_tau0):
        _, fn = z2_tau0
        _, C12, rep12 = build_subsolution(fn, window=12.0)
        _, C18, rep18 = build_subsolution(fn, window=18.0)
        assert rep12["mode"] == "non_uniform"
        assert 0 < C12 < 10
        assert C18 == pytest.approx(C12, rel=1e-3)  # C does not grow with the window

    def test_zero_weight_exponent_reported(self, z2_tau0):
        _, fn = z2_tau0
        _, _, rep = build_subsolution(fn)
        assert [1.0] in rep["zero_weight_exponents"]  # the vanishing-face vertex
        assert rep["n_exponents"] >= 5  # half-lattice, not just vertices

    def test_uniform_case(self, z1_soliton_fn):
        u_sub, C, rep = build_subsolution(z1_soliton_fn)
        # C is comparable to 1/A in the uniform regime
        assert C <= 10.0 / z1_soliton_fn.gstats.A
        assert u_sub.is_grid_convex()

    def test_growth_unavailable_refused(self, z2):
        # a profile with f vanishing quadratically at alpha fails the growth
        # bound and the construction must refuse
        def impl(t):
            w = t + 1.0
            return -2 * np.log(w), -2.0 / w, 2.0 / w**2

        prof = sg.SigmaProfile(
            "custom", -1.0, math.inf, {}, impl, boundary_exponent=2.0
        )
        from fractions import Fraction

        fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
        fn = Functionals.__new__(Functionals)
        fn.data, fn.profile, fn.field = z2, prof, fld
        fn.dual = z2.dual()
        with pytest.raises(ValueError, match="growth"):
            build_subsolution(fn)


class Test2DSolve:
    def test_p2_fiber_coarse(self, p2_fiber):
        fld = normalize_field([0, 0], h_stats(p2_fiber), p2_fiber.dual())
        fn = Functionals(p2_fiber, sg.constant(0.0), fld)
        sol = minimize_ding(fn, level=4, tol_tv=2e-3, max_iter=2000)
        assert sol.residual_tv <= 2e-3
        res = sol.u.exp_integral(full=True)
        assert res["total"] == pytest.approx(fn.gstats.volume_g, rel=1e-2)

    @pytest.mark.parametrize("name", ["P2-fiber", "square-fiber"])
    def test_default_tolerance_converges(self, request, name):
        # exact cell masses and their edge-flux Hessian let damped Newton
        # reach the default 1e-4 in a few steps
        data = request.getfixturevalue(name.replace("-", "_").replace("P2_fiber", "p2_fiber"))
        fld = normalize_field([0, 0], h_stats(data), data.dual())
        fn = Functionals(data, sg.constant(0.0), fld)
        sol = minimize_ding(fn, level=4, max_iter=300)
        assert sol.converged
        assert sol.residual_tv <= 1e-4
        # the returned residual is the exact mismatch of the returned potential
        res = sol.u.exp_integral(full=True)
        wg = fn.hat_weights(sol.u.geom, "g")
        tv = 0.5 * np.abs(wg / wg.sum() - res["masses"] / res["masses"].sum()).sum()
        assert tv == pytest.approx(sol.residual_tv, rel=1e-9)

    @pytest.mark.parametrize("name", ["P2-fiber", "square-fiber"])
    def test_default_level_converges(self, request, name):
        # the default level 6 at the default tolerance; damped Newton with
        # the edge-flux Hessian needs 4 iterations on both, so 50 is ample
        data = request.getfixturevalue(name.replace("-", "_").replace("P2_fiber", "p2_fiber"))
        fld = normalize_field([0, 0], h_stats(data), data.dual())
        fn = Functionals(data, sg.constant(0.0), fld)
        sol = minimize_ding(fn, max_iter=50)
        assert sol.u.geom.level == 6
        assert sol.converged and sol.residual_tv <= 1e-4


class TestIndependentODEOracle:
    def test_z1_solution_tracks_ivp(self, z1_soliton_fn, z1_solution):
        # integrate u'' = e^{-u} / g(u') outward from the solver's own minimum
        # with an independent integrator; the trajectory must track the solved
        # potential and the slopes must saturate at the dual vertices +-1
        from scipy.integrate import solve_ivp

        from ksm_stab.functionals import g_values

        fn = z1_soliton_fn
        sol = z1_solution
        ys = np.linspace(-3, 3, 2401).reshape(-1, 1)
        uv = sol.u.primal_value(ys)
        i0 = int(np.argmin(uv))
        y_star, m = float(ys[i0, 0]), float(uv[i0])

        def g_of(z):
            zc = np.clip(z, -1 + 1e-12, 1 - 1e-12)
            return float(g_values(fn.data, fn.profile, fn.field, np.array([[zc]]))[0])

        def rhs(y, state):
            u, du = state
            return [du, math.exp(-u) / g_of(du)]

        out = {}
        for sign in (+1, -1):
            ivp = solve_ivp(
                rhs,
                (y_star, y_star + sign * 12.0),
                [m, 0.0],
                rtol=1e-10,
                atol=1e-12,
                dense_output=True,
                max_step=0.05,
            )
            assert ivp.success
            out[sign] = ivp
        yq = np.linspace(y_star - 6, y_star + 6, 241)
        u_ivp = np.array(
            [out[1].sol(y)[0] if y >= y_star else out[-1].sol(y)[0] for y in yq]
        )
        u_num = sol.u.primal_value(yq.reshape(-1, 1))
        assert float(np.max(np.abs(u_num - u_ivp))) <= 1e-2
        # slope saturation at the dual vertices
        assert out[1].sol(y_star + 12.0)[1] == pytest.approx(1.0, abs=5e-3)
        assert out[-1].sol(y_star - 12.0)[1] == pytest.approx(-1.0, abs=5e-3)


def _dense_hessian(cells):
    """L_w - diag m + m m^T over the hull nodes, assembled densely."""
    act = cells.active
    K, M = len(act), float(np.sum(cells.masses))
    pos = {node: k for k, node in enumerate(act)}
    H = np.zeros((K, K))
    for (i, j), w in zip(cells.edges, cells.fluxes / M):
        a, b = pos[i], pos[j]
        H[a, a] += w
        H[b, b] += w
        H[a, b] -= w
        H[b, a] -= w
    mhat = cells.masses[act] / M
    return H - np.diag(mhat) + np.outer(mhat, mhat)


def _facet_interpolant(nodes, cells, d_act):
    # brute force: barycentric coordinates in every facet until one holds
    out = np.zeros(len(nodes))
    out[cells.active] = d_act
    for k in np.setdiff1d(np.arange(len(nodes)), cells.active):
        for facet in cells.facets:
            P = nodes[facet]
            lam = np.linalg.solve((P[1:] - P[0]).T, nodes[k] - P[0])
            if lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12:
                out[k] = out[facet[0]] + lam @ (out[facet[1:]] - out[facet[0]])
                break
        else:
            raise AssertionError(f"node {k} lies on no facet")
    return out


def test_newton_direction_matches_dense_solve(p1_fiber, p2_fiber, square_fiber):
    # the banded solve with a Sherman-Morrison correction against the dense
    # solve of the assembled edge-flux Hessian, in 1D and 2D, on random data
    # whose nodes are partly above the hull
    from ksm_stab.ma_solver import _newton_direction

    rng = np.random.default_rng(5)
    cases = [(p1_fiber, 7), (p2_fiber, 4), (square_fiber, 4)]
    for data, level in [case for case in cases for _ in range(3)]:
        sl = rng.uniform(-3, 3, size=(6, data.dual().dimension))
        off = rng.uniform(-1, 1, size=6)
        u = grid_from_values(
            data.dual(),
            lambda zs: np.max(zs @ sl.T + off, axis=1) + 0.3 * np.sum(zs**2, axis=1)
            + 0.3 * rng.uniform(size=zs.shape[0]),
            level=level,
        )
        cells = u.exp_cells()
        what = rng.dirichlet(np.ones(u.geom.n_nodes))
        grad = what - cells.masses / np.sum(cells.masses)
        d = _newton_direction(u.nodes, grad, cells)

        act = cells.active
        g_act = grad[act]
        H = _dense_hessian(cells) + (1e-12 + 1e-3 * np.abs(g_act).sum()) * np.eye(len(act))
        d_act = np.linalg.solve(H, -g_act)
        assert 3 <= len(act) < u.geom.n_nodes and g_act @ d_act < 0
        ref = _facet_interpolant(u.nodes, cells, d_act)
        np.testing.assert_allclose(d, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ["P2-fiber", "square-fiber"])
def test_edge_flux_hessian_is_mass_jacobian(request, name):
    # central differences of the normalized masses on strictly convex data:
    # d(-m)/dv = L_w - diag m + m m^T (on grid-convex data flattened onto
    # hull facets m has kinks and differences do not apply)
    data = request.getfixturevalue(name.replace("-", "_").replace("P2_fiber", "p2_fiber"))
    fld = normalize_field([0, 0], h_stats(data), data.dual())
    u = initial_grid(Functionals(data, sg.constant(0.0), fld), level=4)
    cells = u.exp_cells()
    m = u.geom.n_nodes
    assert len(cells.active) == m

    def mhat(v):
        c = u.with_values(v).exp_cells()
        return c.masses / np.sum(c.masses)

    h = 1e-5
    J = np.column_stack(
        [(mhat(u.values - h * e) - mhat(u.values + h * e)) / (2 * h) for e in np.eye(m)]
    )
    H = _dense_hessian(cells)
    assert np.max(np.abs(J - H)) <= 1e-5 * np.max(np.abs(H))


def test_one_hull_per_line_search_trial(p2_fiber, monkeypatch):
    # convexify hands its hull to the projected values, so an objective
    # evaluation builds no second hull
    from ksm_stab import convex

    hulls, trials = [0], [0]
    hull, exp_cells = convex.ConvexHull, convex.ConvexDualGrid.exp_cells

    def counted_hull(*args, **kwargs):
        hulls[0] += 1
        return hull(*args, **kwargs)

    def counted_cells(self):
        trials[0] += 1
        return exp_cells(self)

    monkeypatch.setattr(convex, "ConvexHull", counted_hull)
    monkeypatch.setattr(convex.ConvexDualGrid, "exp_cells", counted_cells)
    fld = normalize_field([0, 0], h_stats(p2_fiber), p2_fiber.dual())
    sol = minimize_ding(Functionals(p2_fiber, sg.constant(0.0), fld), level=4)
    # the start's convexify builds one hull, each trial's one more, and the
    # exp_cells of every convexified grid finds it cached
    assert sol.converged and trials[0] >= 3
    assert hulls[0] == trials[0]

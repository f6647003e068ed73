from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import isotonic_regression

from ksm_stab.convex import (
    PLConvex,
    WindowTooSmallError,
    _exp_neg_dd2,
    dual_grid_geometry,
    grid_from_values,
    pl_exp_integral_1d,
    support_grid,
)
from ksm_stab.datasets import dataset_names, load_dataset
from ksm_stab.ma_solver import minimize_ding
from ksm_stab.polytope import support_function

from conftest import product_oracle_dual_values


class TestPLConvex:
    def test_value_and_zero(self):
        phi = PLConvex.make([((1,), 0), ((-1,), 0)])  # |z|
        assert phi([0.4]) == pytest.approx(0.4)
        assert phi.at_zero() == 0.0
        assert phi.value_exact((Fraction(-3, 7),)) == Fraction(3, 7)

    def test_kinks_exact(self):
        phi = PLConvex.make([((2,), Fraction(1, 3)), ((-1,), 0), ((0,), Fraction(1, 5))])
        cuts = phi.kink_points_1d(Fraction(-1), Fraction(1))
        assert cuts[0] == -1 and cuts[-1] == 1
        for a, b in zip(cuts[:-1], cuts[1:]):
            mid = (a + b) / 2
            # a single piece dominates strictly inside each cell
            vals = [am[0] * mid + bm for am, bm in phi.pieces]
            assert max(vals) == phi.value_exact((mid,))

    def test_json_round_trip(self):
        phi = PLConvex.make([((Fraction(1, 3), Fraction(-2)), Fraction(1, 7))], offset=2)
        again = PLConvex.from_json(phi.to_json())
        assert again == phi


class TestExpIntegral1D:
    def test_against_adaptive_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k = rng.integers(3, 8)
            slopes = np.sort(rng.uniform(-3, 3, size=k))
            slopes[0] = -abs(slopes[0]) - 0.5
            slopes[-1] = abs(slopes[-1]) + 0.5
            q = rng.uniform(-1, 1, size=k)
            res = pl_exp_integral_1d(slopes, q)
            u = lambda y: np.max(slopes * y - q)
            num, err = quad(
                lambda y: np.exp(-u(y)),
                -80,
                80,
                limit=800,
                points=list(res["breakpoints"]),
            )
            assert res["total"] == pytest.approx(num, rel=1e-9)
            # masses carry the documented exp(mass_log_scale) scaling
            total_from_masses = np.sum(res["masses"]) * np.exp(-res["mass_log_scale"])
            assert total_from_masses == pytest.approx(res["total"], rel=1e-12)

    @pytest.mark.parametrize("level", [9, 12, 14])
    @pytest.mark.parametrize("kind", ["convex", "pav-pooled", "noisy", "concave", "affine"])
    def test_envelope_matches_reference_stack(self, p1_fiber, kind, level):
        z = dual_grid_geometry(p1_fiber.dual(), level).nodes[:, 0]
        rng = np.random.default_rng(level)
        values = {
            "convex": lambda: product_oracle_dual_values(z),
            "pav-pooled": lambda: _pav_pooled(z, z**2 + rng.normal(size=len(z)) / len(z)),
            "noisy": lambda: z**2 + 1e-3 * rng.normal(size=len(z)),
            "concave": lambda: -(z**2),
            "affine": lambda: 0.3 * z + 1.0,
        }[kind]()
        res = pl_exp_integral_1d(z, values)
        act, bps = _reference_envelope(z, values)
        assert np.array_equal(res["active"], act)
        assert np.array_equal(res["breakpoints"], bps)
        if kind == "convex":
            assert len(act) == len(z)
        # exp_cells reads the same envelope off the lower-hull record
        cells = grid_from_values(p1_fiber.dual(), values, level=level).exp_cells()
        assert np.array_equal(cells.active, act)
        assert np.array_equal(cells.ys[:, 0], bps)
        assert np.array_equal(cells.masses, res["masses"])
        assert cells.log_total == res["log_total"]
        assert np.array_equal(cells.fluxes, res["fluxes"] / np.diff(z[act]))

    def test_one_envelope_per_line_search_trial(self, z1_soliton_fn, monkeypatch):
        # every trial convexifies, which builds the envelope once; exp_cells
        # and the Newton direction read it from the hull cache
        import ksm_stab.convex as cv

        calls = {"envelope": 0, "convexify": 0}
        envelope, convexify = cv._upper_envelope, cv.ConvexDualGrid.convexify

        def counted_envelope(*args):
            calls["envelope"] += 1
            return envelope(*args)

        def counted_convexify(self):
            calls["convexify"] += 1
            return convexify(self)

        monkeypatch.setattr(cv, "_upper_envelope", counted_envelope)
        monkeypatch.setattr(cv.ConvexDualGrid, "convexify", counted_convexify)
        dual_grid_geometry(z1_soliton_fn.dual, 12)._cache.pop("hulls", None)
        sol = minimize_ding(z1_soliton_fn, level=12)
        assert sol.converged
        assert calls["envelope"] == calls["convexify"] >= sol.iterations

    def test_segment_masses_finite_on_raw_values(self, p1_fiber):
        """Raw, non-convex values give segments whose ends differ by far more
        than exp overflows at; seeded N(0, 1) values at level 14 against the
        total summed in mpmath."""
        import mpmath as mp

        z = dual_grid_geometry(p1_fiber.dual(), 14).nodes[:, 0]
        v = np.random.default_rng(14).normal(size=len(z))
        res = pl_exp_integral_1d(z, v)
        act, b = res["active"], res["breakpoints"]
        with mp.workdps(40):
            s, q, bp = (list(map(mp.mpf, x.tolist())) for x in (z[act], v[act], b))
            u = [s[k] * bp[k] - q[k] for k in range(len(bp))]
            total = mp.exp(-u[0]) / -s[0] + mp.exp(-u[-1]) / s[-1]
            for k in range(1, len(s) - 1):
                uL, uR = s[k] * bp[k - 1] - q[k], s[k] * bp[k] - q[k]
                total += (mp.exp(-uL) - mp.exp(-uR)) / s[k] if s[k] else mp.exp(-uL) * (bp[k] - bp[k - 1])
        assert np.isfinite(res["total"])
        assert res["total"] == pytest.approx(float(total), rel=1e-12)

    def test_divergent_raises(self):
        with pytest.raises(WindowTooSmallError):
            pl_exp_integral_1d(np.array([0.5, 1.0]), np.array([0.0, 0.0]))


def _pav_pooled(z, v):
    """v with its slope sequence replaced by its isotonic regression (runs of
    pooled, equal slopes), shifted back to the mean of v."""
    dz = np.diff(z)
    out = np.concatenate([[0.0], np.cumsum(isotonic_regression(np.diff(v) / dz).x * dz)]) + v[0]
    return out + (v.mean() - out.mean())


def _reference_envelope(s, q):
    """Upper envelope of the lines y -> s y - q, s sorted and unique: the
    monotone stack over slopes on numpy scalars, line by line."""
    act, bps = [], []
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
    return np.array(act), np.array(bps)


def _dd2_oracle(a, b, c):
    """exp(-x)[a, b, c] in 50-digit arithmetic, with the confluent forms."""
    import mpmath as mp

    with mp.workdps(50):
        a, b, c = sorted(mp.mpf(x) for x in (a, b, c))
        f = lambda x: mp.exp(-x)
        if a == c:
            return f(a) / 2
        if a == b or b == c:
            p, q = (a, c) if a == b else (c, a)  # p double, q single
            # f[p, p, q] = (f[p, q] - f'(p)) / (q - p)
            return ((f(q) - f(p)) / (q - p) + f(p)) / (q - p)
        return (
            f(a) / ((a - b) * (a - c)) + f(b) / ((b - a) * (b - c)) + f(c) / ((c - a) * (c - b))
        )


class TestExpIntegral2D:
    def test_divided_difference_against_mpmath(self):
        cases = [(0.3, 0.3, 0.3), (-2.0, -2.0, -2.0), (1.0, 1.0, 1.5), (1.0, 4.0, 4.0)]
        rng = np.random.default_rng(11)
        for spread in (1e-9, 1e-6, 1e-3, 0.1, 0.49, 0.51, 2.0, 30.0, 700.0):
            for _ in range(3):
                lo = rng.uniform(-5, 5)
                mid = lo + spread * rng.uniform()
                cases.append(tuple(rng.permutation([lo, mid, lo + spread])))
            cases.append((lo, lo, lo + spread))
            cases.append((lo, lo + spread, lo + spread))
        a, b, c = (np.array(v) for v in zip(*cases))
        got = _exp_neg_dd2(a, b, c)
        for k, case in enumerate(cases):
            assert got[k] == pytest.approx(float(_dd2_oracle(*case)), rel=1e-13, abs=0), case

    @pytest.mark.parametrize("name", ["P2-fiber", "square-fiber"])
    def test_cells_against_line_integral_oracle(self, request, name):
        """Total and every normalized cell mass of seeded random grid-convex
        data against quad over y2 of the exact 1D line integrals."""
        data = request.getfixturevalue(name.replace("-", "_").replace("P2_fiber", "p2_fiber"))
        rng = np.random.default_rng(2024)
        g = grid_from_values(
            data.dual(),
            lambda zs: rng.normal(size=zs.shape[0]) + np.sum(zs**2, axis=1),
            level=4,
        ).convexify()
        res = g.exp_integral(full=True)
        hull = g.lower_hull()
        act, ys = hull.active, hull.ys
        Z, V = g.nodes[act], g.values[act]
        memo = {}

        def line_masses(y2):
            # true exp(-u) masses of every node along the line {y_2 = y2}
            if y2 not in memo:
                r = pl_exp_integral_1d(Z[:, 0], V - Z[:, 1] * y2)
                memo[y2] = r["masses"] * np.exp(-r["mass_log_scale"])
            return memo[y2]

        kinks = sorted(set(ys[:, 1]))
        lo, hi = kinks[0] - 1.0, kinks[-1] + 1.0
        oracle = np.zeros(g.geom.n_nodes)
        for k, node in enumerate(act):
            f = lambda y2: line_masses(y2)[k]
            oracle[node] = (
                quad(f, -np.inf, lo, epsabs=0, epsrel=1e-13)[0]
                + quad(f, lo, hi, points=kinks, limit=500, epsabs=0, epsrel=1e-13)[0]
                + quad(f, hi, np.inf, epsabs=0, epsrel=1e-13)[0]
            )
        assert res["total"] == pytest.approx(oracle.sum(), rel=1e-9)
        mhat = res["masses"] / res["masses"].sum()
        assert mhat == pytest.approx(oracle / oracle.sum(), rel=1e-8, abs=1e-15)


GEOMETRY_LEVELS = {1: (1, 9), 2: (2, 3, 4, 6)}
GEOMETRY_CASES = [
    (name, level)
    for name in dataset_names()
    for level in GEOMETRY_LEVELS[load_dataset(name).fiber_dimension]
]


class TestDualGridGeometry:
    @staticmethod
    def _geometry(name, level):
        dual = load_dataset(name).dual()
        geom = dual_grid_geometry(dual, level)
        exact = [tuple(Fraction(int(x), geom.denominator) for x in row) for row in geom.numerators]
        return dual, geom, exact

    @pytest.mark.parametrize("name,level", GEOMETRY_CASES)
    def test_nodes_unique_lexicographic_and_exact(self, name, level):
        _, geom, exact = self._geometry(name, level)
        # the banded Newton solve of the Ding minimizer relies on this order
        assert exact == sorted(set(exact))
        assert geom.numerators.dtype == np.int64
        assert geom.nodes.tolist() == [[float(x) for x in z] for z in exact]

    @pytest.mark.parametrize("name,level", GEOMETRY_CASES)
    def test_cells_tile_the_dual_exactly(self, name, level):
        dual, geom, _ = self._geometry(name, level)
        l = geom.dimension
        assert geom.cells.shape == (len(dual.triangulation) * 2 ** ((level - l) * l), l + 1)
        corners = geom.numerators[geom.cells]
        d = corners[:, 1:] - corners[:, :1]  # (C, l, l) integer edge vectors
        det = d[:, 0, 0] if l == 1 else d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
        assert np.all(det != 0)
        volume = Fraction(int(np.abs(det).sum()), geom.denominator**l * factorial(l))
        assert volume == dual.volume_exact()

    @pytest.mark.parametrize("name,level", GEOMETRY_CASES)
    def test_faces_and_vertices_exact(self, name, level):
        dual, geom, exact = self._geometry(name, level)
        on_face = [
            [sum(n * x for n, x in zip(nrm, z)) == rhs for nrm, rhs in dual.half_spaces]
            for z in exact
        ]
        assert geom.on_face.tolist() == on_face
        assert [exact[i] for i in geom.vertex_node_indices] == list(dual.vertices)

    def test_level_zero_is_level_one_in_1d(self, p1_fiber):
        # k = 2^max(level - 1, 0) cells per half of [-1, 1]: level 0 splits at 0
        g0 = dual_grid_geometry(p1_fiber.dual(), 0)
        assert g0.nodes[:, 0].tolist() == [-1.0, 0.0, 1.0]
        assert g0.cells.shape == (2, 2)


class TestConvexDualGrid:
    def test_support_grid_is_support_function(self, p2_fiber):
        g = support_grid(p2_fiber.dual())
        rng = np.random.default_rng(0)
        ys = rng.normal(scale=5, size=(40, 2))
        assert np.allclose(g.primal_value(ys), support_function(p2_fiber.dual(), ys), atol=1e-12)

    @pytest.mark.parametrize("name,n0", [("p1-fiber", 2), ("square-fiber", 4), ("P2-fiber", 3)])
    def test_vertex_count_identity(self, request, name, n0):
        data = request.getfixturevalue(name.replace("-", "_").replace("P2_fiber", "p2_fiber"))
        res = support_grid(data.dual()).exp_integral()
        # every smooth vertex cone contributes exactly 1
        assert res["total"] == pytest.approx(n0, rel=1e-12)

    def test_product_case_integral(self, p1_fiber):
        g = grid_from_values(p1_fiber.dual(), lambda zs: product_oracle_dual_values(zs[:, 0]))
        res = g.exp_integral()
        # the grid-restricted conjugate underestimates u, so the integral
        # overshoots 2 by the PL discretization error only
        assert res["total"] == pytest.approx(2.0, abs=2e-5)
        assert g.primal_value([0.0]) == pytest.approx(np.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("level", [9, 12, 14])
    @pytest.mark.parametrize("fn_name", ["z1_soliton_fn", "z2_soliton_fn", "product_fn"])
    def test_primal_value_1d_matches_dense_max(self, request, fn_name, level):
        """The envelope lookup against the max over all hull nodes, on the
        window lattice and at breakpoints and their neighbouring floats."""
        u = minimize_ding(request.getfixturevalue(fn_name), level=level).u
        cells = u.exp_cells()
        b = np.random.default_rng(level).choice(cells.ys[:, 0], 500)
        ys = np.concatenate(
            [u.primal_grid()[0][:, 0], b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
        )[:, None]
        Z, V = u.nodes[cells.active], u.values[cells.active]
        dense = np.concatenate(
            [np.max(ys[i : i + 256] @ Z.T - V, axis=1) for i in range(0, len(ys), 256)]
        )
        assert np.array_equal(u.primal_value(ys), dense)

    def test_biconjugate_involution(self, p1_fiber, p2_fiber):
        rng = np.random.default_rng(3)
        for data, level in ((p1_fiber, 9), (p2_fiber, 4)):
            dual = data.dual()

            def vals(zs):
                sl = rng.uniform(-2, 2, size=(5, zs.shape[1]))
                off = rng.uniform(-1, 1, size=5)
                return np.max(zs @ sl.T + off, axis=1)

            g = grid_from_values(dual, vals, level=level)
            # the lower hull of the points (z, u*): ((u*)*)* back on the nodes
            bc = g.exp_cells().hull_interpolant(g.nodes, g.values)
            scale = 1.0 + np.abs(g.values)
            assert np.all(bc <= g.values + 1e-9 * scale)
            assert np.allclose(bc, g.values, atol=1e-6 * float(np.max(scale)))

    def test_convexify_projection(self, p1_fiber):
        rng = np.random.default_rng(5)
        g = grid_from_values(p1_fiber.dual(), lambda zs: rng.normal(size=zs.shape[0]))
        proj = g.convexify()
        assert proj.is_grid_convex()
        assert proj.convexify().values == pytest.approx(proj.values, abs=1e-12)

    def test_shifted_grid_total_against_mpmath(self, p1_fiber):
        import mpmath as mp

        g = support_grid(p1_fiber.dual())
        # push dual values so most exp(-u) mass sits outside |y| <= 3
        shifted = g.with_values(g.values + 20.0 * np.abs(g.nodes[:, 0]))
        z, v = shifted.nodes[:, 0], shifted.values
        res = shifted.exp_integral()
        # u(y) by the dense max over every node, exp(-u) and the sum in mpmath
        f = lambda y: mp.exp(-float(np.max(float(y) * z - v)))
        kinks = pl_exp_integral_1d(z, v)["breakpoints"]
        cuts = [-mp.inf, *map(mp.mpf, kinks), mp.inf]
        with mp.workdps(30):
            total = mp.quad(f, cuts)
            inside = mp.quad(f, [-3, 0, 3])
        assert inside < total / 2
        assert res["total"] == pytest.approx(float(total), rel=1e-14)
        assert res["log_total"] == pytest.approx(float(mp.log(total)), rel=1e-14)

    def test_interpolate_matches_nodes(self, p2_fiber):
        g = support_grid(p2_fiber.dual(), level=4)
        vals = g.with_values(np.abs(g.nodes[:, 0]) + 0.5 * g.nodes[:, 1])
        assert vals.interpolate([0.25, 0.25]) == pytest.approx(0.375, abs=1e-12)

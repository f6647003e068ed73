import math
from fractions import Fraction

import numpy as np
import pytest

from ksm_stab import sigma as sg
from ksm_stab.convex import PLConvex, grid_from_values, support_grid
from ksm_stab.functionals import (
    DomainError,
    Functionals,
    g_stats,
    g_weight,
    normalize_field,
    simplex_g_integrals,
    stability_verdict,
)
from ksm_stab.ksm import h_stats

from conftest import product_oracle_dual_values


def random_pl(rng, dim, n_pieces=4, bound=4):
    pieces = []
    for _ in range(n_pieces):
        a = tuple(
            Fraction(int(rng.integers(-bound, bound + 1)), int(rng.integers(1, 4)))
            for _ in range(dim)
        )
        b = Fraction(int(rng.integers(-2 * bound, 2 * bound + 1)), 4)
        pieces.append((a, b))
    return PLConvex.make(pieces)


def random_convex_grid(rng, dual, level=None):
    def vals(zs):
        sl = rng.uniform(-2.5, 2.5, size=(5, zs.shape[1]))
        off = rng.uniform(-1, 1, size=5)
        return np.max(zs @ sl.T + off, axis=1)

    return grid_from_values(dual, vals, level=level)


class TestNormalizeField:
    def test_z1_c6(self, z1):
        fld = normalize_field([6], h_stats(z1), z1.dual())
        assert fld.C_V_exact == 1
        assert fld.k_values([[0.5]])[0] == pytest.approx(-2.0)  # k(z) = -6z + 1

    def test_z2_boundary_exact(self, z2):
        fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
        assert fld.C_V_exact == Fraction(12, 19)
        vals = dict(zip([float(v[0]) for v in z2.dual().vertices], fld.vertex_values_exact))
        assert vals[1.0] == Fraction(-1)
        assert vals[-1.0] == Fraction(43, 19)

    def test_zero_field(self, z1):
        fld = normalize_field([0], h_stats(z1), z1.dual())
        assert fld.C_V == 0.0
        assert fld.k_values([[0.7]])[0] == 0.0

    def test_float_coefficients_have_no_exact_channel(self, z1):
        fld = normalize_field([0.25], h_stats(z1), z1.dual())
        assert fld.coeffs_exact is None
        assert fld.C_V == pytest.approx(0.25 / 6)

    def test_h_weighted_mean_vanishes(self, z2):
        # int k h dz = 0 is the content of the normalization
        from ksm_stab.polytope import integrate

        fld = normalize_field([1.7], h_stats(z2), z2.dual())
        from ksm_stab.ksm import h_values

        val = integrate(z2.dual(), lambda zs: fld.k_values(zs) * h_values(z2, zs))
        assert val == pytest.approx(0.0, abs=1e-13)


class TestGWeight:
    def test_constant_sigma_gives_h(self, z2):
        fld = normalize_field([0], h_stats(z2), z2.dual())
        prof = sg.constant(0.0)
        assert g_weight(z2, prof, fld, [0.5]) == pytest.approx((1 + 1 / 3) ** 2)

    def test_boundary_zero(self, z2):
        fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
        for tau in (0.3, 0.9):
            assert g_weight(z2, sg.tau_mix(tau), fld, [1.0]) == 0.0

    def test_substitution_formula(self, z1):
        # sigma_0: g = h(z) e^{-c z + C_V}
        c = 0.8
        fld = normalize_field([c], h_stats(z1), z1.dual())
        prof = sg.linear(0.0)
        z = 0.3
        expect = (1 + z / 2) * math.exp(-c * z + fld.C_V)
        assert g_weight(z1, prof, fld, [z]) == pytest.approx(expect, rel=1e-14)

    def test_domain_errors(self, z1):
        fld = normalize_field([6], h_stats(z1), z1.dual())  # k range [-5, 7]
        with pytest.raises(DomainError):
            g_weight(z1, sg.tau_mix(0.5), fld, [0.9])  # k = -4.4 < -1
        with pytest.raises(DomainError):
            g_weight(z1, sg.constant(0.0), fld, [2.0])  # outside P*


class TestGStats:
    def test_z2_mabuchi_boundary_value(self, z2):
        fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
        gs = g_stats(z2, sg.mabuchi_log(1.0), fld)
        assert gs.reduced_futaki[0] == pytest.approx(62 / 855, abs=1e-12)
        assert gs.A == 0.0 and gs.B > 0

    def test_z2_soliton_boundary_value(self, z2):
        fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
        gs = g_stats(z2, sg.tau_mix(0.0), fld)
        closed = 19 / (9 * 31**4) * (
            -2268214 * math.exp(-31 / 19) + 80048 * math.exp(31 / 19)
        )
        # the reference closed form factors out the constant e^{C_V}
        assert gs.reduced_futaki[0] * math.exp(-fld.C_V) == pytest.approx(closed, abs=1e-12)
        assert gs.reduced_futaki[0] < 0

    def test_symmetric_vanishes(self, p1_fiber, square_fiber):
        for data in (p1_fiber, square_fiber):
            fld = normalize_field([0] * data.fiber_dimension, h_stats(data), data.dual())
            gs = g_stats(data, sg.constant(0.0), fld)
            assert np.linalg.norm(gs.reduced_futaki) < 1e-14

    def test_futaki_equals_volume_times_barycenter(self, z1):
        fld = normalize_field([0.4], h_stats(z1), z1.dual())
        gs = g_stats(z1, sg.tau_mix(0.5), fld)
        assert gs.reduced_futaki == pytest.approx(gs.volume_g * gs.barycenter_g, rel=1e-15)

    def test_bounds_order(self, z1):
        fld = normalize_field([0.4], h_stats(z1), z1.dual())
        gs = g_stats(z1, sg.tau_mix(0.5), fld)
        assert 0 < gs.A <= gs.B


class TestVerdict:
    def test_unstable_z1(self, unstable_z1_fn):
        fn = unstable_z1_fn
        v = stability_verdict(fn.gstats, fn.profile, fn.field, fn.data)
        assert v.status == "unstable"
        assert v.destabilizer["invariant"] == pytest.approx(-1 / 6, abs=1e-12)
        pieces = v.destabilizer["pieces"]["pieces"]
        assert pieces == [[["-1"], "0"]]  # phi(z) = -z

    def test_symmetric_polystable(self, p1_fiber):
        fld = normalize_field([0], h_stats(p1_fiber), p1_fiber.dual())
        gs = g_stats(p1_fiber, sg.constant(0.0), fld)
        v = stability_verdict(gs, sg.constant(0.0), fld, p1_fiber)
        assert v.status == "polystable_uniform"

    def test_z2_tau0_nonuniform(self, z2_tau0):
        _, fn = z2_tau0
        v = stability_verdict(fn.gstats, fn.profile, fn.field, fn.data)
        assert v.status == "polystable_nonuniform"
        assert v.boundary_touching


class TestDingInvariant:
    def test_affine_zero_on_balanced(self, z1_soliton_fn):
        phi = PLConvex.make([((Fraction(3, 2),), Fraction(1, 3))])
        assert z1_soliton_fn.ding_invariant(phi) == pytest.approx(0.0, abs=1e-12)

    def test_abs_on_unstable_z1(self, unstable_z1_fn):
        phi = PLConvex.make([((1,), 0), ((-1,), 0)])
        assert unstable_z1_fn.ding_invariant(phi) == pytest.approx(0.5, abs=1e-13)

    def test_destabilizer_value(self, unstable_z1_fn):
        phi = PLConvex.make([((-1,), 0)])
        assert unstable_z1_fn.ding_invariant(phi) == pytest.approx(-1 / 6, abs=1e-13)

    def test_jensen_bound_random(self, z1_soliton_fn, p2_fiber):
        rng = np.random.default_rng(11)
        fns = [z1_soliton_fn]
        fld2 = normalize_field([0, 0], h_stats(p2_fiber), p2_fiber.dual())
        fns.append(Functionals(p2_fiber, sg.constant(0.0), fld2))
        for fn in fns:
            bg = np.asarray(fn.gstats.barycenter_g)
            for _ in range(15):
                phi = random_pl(rng, fn.data.fiber_dimension)
                lhs = fn.ding_invariant(phi)
                assert lhs >= phi(bg) - phi.at_zero() - 1e-9

    def test_r_independence(self, z1_soliton_fn):
        phi1 = PLConvex.make([((1,), 0), ((-1,), 0)], offset=0)
        phi2 = PLConvex.make([((1,), 0), ((-1,), 0)], offset=7)
        assert z1_soliton_fn.ding_invariant(phi1) == z1_soliton_fn.ding_invariant(phi2)

    def test_nonuniform_instance(self, z2_tau0):
        _, fn = z2_tau0
        phi = PLConvex.make([((1,), 0), ((-1,), 0)])
        assert fn.ding_invariant(phi) > 1e-3  # nonzero gap, Jensen strict


class TestDingFunctional:
    @pytest.mark.parametrize(
        "fixture,n0",
        [("p1_fiber", 2), ("square_fiber", 4), ("p2_fiber", 3)],
    )
    def test_support_grid_value(self, request, fixture, n0):
        data = request.getfixturevalue(fixture)
        fld = normalize_field([0] * data.fiber_dimension, h_stats(data), data.dual())
        fn = Functionals(data, sg.constant(0.0), fld)
        level = None if data.fiber_dimension == 1 else 5
        D = fn.ding(support_grid(data.dual(), level=level))
        assert D == pytest.approx(-math.log(n0), abs=1e-6)

    def test_product_oracle_value(self, product_fn):
        g = grid_from_values(
            product_fn.dual, lambda zs: product_oracle_dual_values(zs[:, 0])
        )
        assert product_fn.ding(g) == pytest.approx(-1.0, abs=1e-5)

    def test_parts_reported(self, product_fn):
        D, parts = product_fn.ding(support_grid(product_fn.dual), return_parts=True)
        assert parts["dual_part"] == pytest.approx(0.0, abs=1e-15)
        assert parts["exp_integral"] == pytest.approx(2.0)

    def test_translation_invariance_balanced(self, z1_soliton_fn):
        rng = np.random.default_rng(2)
        fn = z1_soliton_fn
        u = random_convex_grid(rng, fn.dual)
        D0 = fn.ding(u)
        for _ in range(5):
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            shifted = u.with_values(u.values + a * u.nodes[:, 0] + b)
            assert fn.ding(shifted) == pytest.approx(D0, abs=1e-8)

    def test_translation_changes_unbalanced(self, unstable_z1_fn):
        fn = unstable_z1_fn
        u = support_grid(fn.dual)
        shifted = u.with_values(u.values + 0.5 * u.nodes[:, 0])
        # D changes by <a, b_g> = 0.5 / 6 when b_g != 0
        assert fn.ding(shifted) - fn.ding(u) == pytest.approx(0.5 / 6, abs=1e-9)


class TestJFunctionals:
    def test_affine_gives_zero(self, z1_soliton_fn):
        fn = z1_soliton_fn
        u = support_grid(fn.dual)
        aff = u.with_values(1.3 * u.nodes[:, 0] - 0.4)
        assert fn.j_red(aff) == pytest.approx(0.0, abs=1e-12)
        assert fn.j_sigma(aff) == pytest.approx(0.0, abs=1e-12)

    def test_abs_value_on_unstable(self, unstable_z1_fn):
        fn = unstable_z1_fn
        u = support_grid(fn.dual).with_values(np.abs(support_grid(fn.dual).nodes[:, 0]))
        assert fn.j_red(u) == pytest.approx(1 / 3, abs=1e-12)

    def test_nonnegative_random(self, z1_soliton_fn):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = random_convex_grid(rng, z1_soliton_fn.dual)
            assert z1_soliton_fn.j_red(u) >= -1e-10
            assert z1_soliton_fn.j_sigma(u) >= -1e-10

    def test_sandwich(self, z1_soliton_fn):
        fn = z1_soliton_fn
        gs, hs = fn.gstats, fn.hstats
        lo = hs.volume_h * gs.A / gs.volume_g
        hi = hs.volume_h * gs.B / gs.volume_g
        rng = np.random.default_rng(6)
        for _ in range(25):
            u = random_convex_grid(rng, fn.dual)
            jr, js = fn.j_red(u), fn.j_sigma(u)
            assert js >= lo * jr - 1e-9
            assert js <= hi * jr + 1e-9


class TestGeodesics:
    def test_t_zero_identity(self, z1_soliton_fn):
        fn = z1_soliton_fn
        u0 = support_grid(fn.dual)
        phi = PLConvex.make([((1,), 0), ((-1,), 0)], offset=1)
        u = fn.geodesic_point(u0, phi, 0.0)
        assert np.allclose(u.values, u0.values)

    def test_affine_shift_formula(self, z1_soliton_fn):
        # phi = <a,z> + b: u_t(y) = u0(y - t a) - t (b - R)
        fn = z1_soliton_fn
        u0 = grid_from_values(fn.dual, lambda zs: 0.3 * zs[:, 0] ** 2)
        a, b, R, t = Fraction(1, 2), Fraction(1, 4), Fraction(2), 3.0
        phi = PLConvex.make([((a,), b)], offset=R)
        ut = fn.geodesic_point(u0, phi, t)
        ys = np.linspace(-4, 4, 61).reshape(-1, 1)
        lhs = ut.primal_value(ys)
        rhs = u0.primal_value(ys - t * float(a)) - t * float(b - R)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_slope_converges_with_log_rate(self, z1_soliton_fn):
        # chord slope -> Ding invariant like log(t)/t; check envelope + decrease
        fn = z1_soliton_fn
        u0 = support_grid(fn.dual)
        phi = PLConvex.make([((1,), 0), ((-1,), 0)], offset=1)
        inv = fn.ding_invariant(phi)
        D0 = fn.ding(u0)
        errs = []
        for T in (50.0, 200.0, 800.0):
            DT = fn.ding(fn.geodesic_point(u0, phi, T))
            err = abs((DT - D0) / T - inv)
            assert err <= (math.log(2 * T) + 2.0) / T
            errs.append(err)
        assert errs[2] < errs[1] < errs[0]

    def test_slope_r_independent(self, z1_soliton_fn):
        fn = z1_soliton_fn
        u0 = support_grid(fn.dual)
        base = PLConvex.make([((1,), 0), ((-1,), 0)])
        T = 100.0
        slopes = []
        for R in (1, 5):
            phi = PLConvex.make(base.pieces, offset=R)
            DT = fn.ding(fn.geodesic_point(u0, phi, T))
            slopes.append((DT - fn.ding(u0)) / T)
        assert slopes[0] == pytest.approx(slopes[1], abs=1e-10)


class TestCoercivityProbe:
    def test_stable_instance_has_evidence(self, z1_soliton_fn):
        rng = np.random.default_rng(8)
        fn = z1_soliton_fn
        samples = [random_convex_grid(rng, fn.dual) for _ in range(8)]
        u0 = support_grid(fn.dual)
        phi = PLConvex.make([((1,), 0), ((-1,), 0)], offset=1)
        samples += [fn.geodesic_point(u0, phi, t) for t in (2.0, 6.0)]
        probe = fn.coercivity_probe(samples)
        assert probe["evidence"] and probe["delta"] > 0

    def test_unstable_destabilizing_sequence_fails(self, unstable_z1_fn):
        fn = unstable_z1_fn
        u0 = support_grid(fn.dual)
        samples = []
        for r in (1.0, 10.0, 100.0):
            ell = u0.with_values(-r * (1 / 6) * u0.nodes[:, 0])
            samples.append(ell)
        probe = fn.coercivity_probe(samples)
        assert not probe["evidence"]
        assert "unbounded" in probe["message"]

    def test_nonuniform_sigma_channel(self, z2_tau0):
        # duals concentrating at the vanishing face carry J_red mass that g
        # barely sees: the delta fitted against J_red collapses like
        # (1-c0)^tau while the J^sigma channel keeps an order-one slope
        _, fn = z2_tau0
        samples = []
        u0 = support_grid(fn.dual)
        z = u0.nodes[:, 0]
        for c0 in (0.9, 0.99):
            raw = np.maximum(z - c0, 0.0)
            jr1 = fn.j_red(u0.with_values(raw))
            for M in (1.0, 6.0, 36.0):
                samples.append(u0.with_values(raw * (M / jr1)))  # J_red = M
        probe_red = fn.coercivity_probe(samples, j_kind="red")
        probe_sig = fn.coercivity_probe(samples, j_kind="sigma")
        assert probe_red["delta"] < 0.05
        assert probe_sig["delta"] > 0.5
        assert probe_sig["delta"] > 10 * probe_red["delta"]


class TestGeodesics2D:
    def test_slope_converges_and_r_independent(self, p2_fiber):
        fld = normalize_field([0, 0], h_stats(p2_fiber), p2_fiber.dual())
        fn = Functionals(p2_fiber, sg.constant(0.0), fld)
        u0 = support_grid(p2_fiber.dual(), level=4)
        phi_R2 = PLConvex.make(
            [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)], offset=2
        )
        phi_R1 = PLConvex.make(phi_R2.pieces, offset=1)
        inv = fn.ding_invariant(phi_R2)
        D0 = fn.ding(u0)
        errs = []
        for T in (16.0, 64.0):
            DT = fn.ding(fn.geodesic_point(u0, phi_R2, T))
            DT_r1 = fn.ding(fn.geodesic_point(u0, phi_R1, T))
            assert (DT - D0) / T == pytest.approx((DT_r1 - D0) / T, abs=1e-9)
            errs.append(abs((DT - D0) / T - inv))
        assert errs[1] < errs[0]  # chord approaches the Ding invariant


def test_custom_profile_matches_closed_form(z1):
    # a sampled tau_mix profile runs the whole pipeline and reproduces the
    # closed-form Futaki vector within interpolation error
    tau = 0.5
    ref = sg.tau_mix(tau)
    hs = h_stats(z1)
    fld = normalize_field([Fraction(1, 4)], hs, z1.dual())
    ts = np.linspace(-0.95, 2.0, 400)
    prof = sg.custom(list(zip(ts, ref.evaluate(ts)[0])))
    gs_ref = g_stats(z1, ref, fld)
    gs_custom = g_stats(z1, prof, fld)
    assert gs_custom.reduced_futaki[0] == pytest.approx(
        gs_ref.reduced_futaki[0], abs=5e-6
    )
    rep = sg.check_admissible(prof)
    assert rep.numeric_only and rep.admissible


# ---------------------------------------------------------------------------
# the pushforward rule against mpmath
# ---------------------------------------------------------------------------


def _mpq(x):
    import mpmath as mp

    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


def _mp_weight(data, profile, field):
    """(k, g) in mpmath for a built-in profile, exact rationals where given."""
    import mpmath as mp

    c = [_mpq(x) for x in (field.coeffs_exact or field.coeffs)]
    C_V = _mpq(field.C_V_exact if field.C_V_exact is not None else field.C_V)
    mus = [[_mpq(m) for m in mu] for mu in data.curvature_vectors]
    if profile.kind == "tau_mix":
        tau = mp.mpf(profile.params["tau"])
        f = lambda t: (t + 1) ** tau * mp.exp((1 - tau) * t) if t > -1 else mp.mpf(0)
    elif profile.kind == "mabuchi_log":
        f = lambda t: t + profile.params["shift"]
    else:
        f = lambda t: mp.exp(-mp.mpf(float(profile(float(t)))))

    def k(z):
        return -mp.fsum(a * x for a, x in zip(c, z)) + C_V

    def g(z):
        h = mp.fprod(1 + mp.fsum(m * x for m, x in zip(mu, z)) for mu in mus)
        return h * f(k(z))

    return k, g


def _oracle_1d(data, profile, field, p, points=(-1, 0, 1)):
    import mpmath as mp

    _, g = _mp_weight(data, profile, field)
    with mp.workdps(20):
        return float(mp.quad(lambda z: p(z) * g((z,)), [mp.mpf(x) for x in points]))


def _oracle_2d(data, profile, field, p, u_split=()):
    """Sum over the triangles of P* of a Duffy-mapped tanh-sinh integral with
    the apex at the vertex of lowest k, where g may vanish or nearly so."""
    import mpmath as mp

    k, g = _mp_weight(data, profile, field)
    pts = data.dual().tri_points
    total = 0
    with mp.workdps(16):
        for simplex in data.dual().triangulation:
            A, B, C = sorted(([_mpq(x) for x in pts[i]] for i in simplex), key=k)
            det = abs((B[0] - A[0]) * (C[1] - B[1]) - (B[1] - A[1]) * (C[0] - B[0]))

            def duffy(u, v):
                z = [A[i] + u * (B[i] - A[i]) + u * v * (C[i] - B[i]) for i in range(2)]
                return p(z) * g(z) * u * det

            total += mp.quad(duffy, [0, *u_split, 1], [0, 1])
    return float(total)


class TestPushforwardOracles:
    @pytest.mark.parametrize(
        "profile",
        [sg.tau_mix(0.3), sg.tau_mix(0.7), sg.mabuchi_log(1.0)],
        ids=["tau0.3", "tau0.7", "mabuchi"],
    )
    def test_z2_boundary(self, z2, profile):
        fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
        gs = g_stats(z2, profile, fld)
        assert gs.volume_g == pytest.approx(_oracle_1d(z2, profile, fld, lambda z: 1), rel=1e-12)
        fut = _oracle_1d(z2, profile, fld, lambda z: z)
        assert gs.reduced_futaki[0] == pytest.approx(fut, rel=1e-12)

    @pytest.mark.parametrize("c", [Fraction(1, 4), 1.2 * (1 - 1e-8)], ids=["interior", "near"])
    def test_z1_interior_and_near_boundary(self, z1, c):
        # c = 6/5 (1 - 1e-8) puts k_min - alpha = 1e-8 at z = 1
        prof = sg.tau_mix(0.5)
        fld = normalize_field([c], h_stats(z1), z1.dual())
        gs = g_stats(z1, prof, fld)
        pts = (-1, 0, 1 - 1e-6, 1)
        assert gs.volume_g == pytest.approx(_oracle_1d(z1, prof, fld, lambda z: 1, pts), rel=1e-12)
        fut = _oracle_1d(z1, prof, fld, lambda z: z, pts)
        assert gs.reduced_futaki[0] == pytest.approx(fut, rel=1e-12)

    def test_custom_profile(self, z1):
        ref = sg.tau_mix(0.5)
        ts = np.linspace(-0.9, 1.5, 9)
        prof = sg.custom(list(zip(ts, ref.evaluate(ts)[0])))
        fld = normalize_field([Fraction(1, 4)], h_stats(z1), z1.dual())
        gs = g_stats(z1, prof, fld)
        # f is a float function: break the oracle at the samples, mapped to z
        cuts = sorted({-1.0, 1.0} | {(fld.C_V - t) / 0.25 for t in ts if abs(fld.C_V - t) < 0.25})
        assert gs.volume_g == pytest.approx(_oracle_1d(z1, prof, fld, lambda z: 1, cuts), rel=1e-12)
        fut = _oracle_1d(z1, prof, fld, lambda z: z, cuts)
        assert gs.reduced_futaki[0] == pytest.approx(fut, rel=1e-12)

    @pytest.mark.parametrize(
        "c,tau,u_split",
        [
            ((Fraction(1, 2), Fraction(1, 2)), 0.25, ()),
            ((Fraction(1, 2), Fraction(1, 2)), 0.5, ()),
            ((0.5 * (1 - 1e-8), 0.5 * (1 - 1e-8)), 0.5, (1e-6,)),
        ],
        ids=["boundary-0.25", "boundary-0.5", "near-0.5"],
    )
    def test_p2_boundary_and_near_boundary(self, p2_fiber, c, tau, u_split):
        # c = (1/2, 1/2) puts k = -1 = alpha at the vertex (1, 1), where g
        # vanishes like (k + 1)^tau; the scaled field stays 1e-8 above it
        import time

        prof = sg.tau_mix(tau)
        fld = normalize_field(list(c), h_stats(p2_fiber), p2_fiber.dual())
        t0 = time.perf_counter()
        gs = g_stats(p2_fiber, prof, fld)
        assert time.perf_counter() - t0 < 1.0
        assert gs.reduced_futaki[0] == pytest.approx(gs.reduced_futaki[1], rel=1e-13)
        got = gs.volume_g + gs.reduced_futaki @ [0.5, 1 / 3]
        p = lambda z: 1 + z[0] / 2 + z[1] / 3
        assert got == pytest.approx(_oracle_2d(p2_fiber, prof, fld, p, u_split), rel=1e-12)

    def test_2d_interior_with_h(self):
        from ksm_stab.ksm import make_ksm

        b1 = make_ksm(1, 2, [["1/3", "0"]], [(1, 0), (0, 1), (-1, -1)], "B1")
        prof = sg.tau_mix(0.5)
        fld = normalize_field([Fraction(3, 10), Fraction(-1, 5)], h_stats(b1), b1.dual())
        gs = g_stats(b1, prof, fld)
        got = gs.volume_g + gs.reduced_futaki @ [0.5, 1 / 3]
        p = lambda z: 1 + z[0] / 2 + z[1] / 3
        assert got == pytest.approx(_oracle_2d(b1, prof, fld, p), rel=1e-12)


class TestHatWeights:
    @pytest.mark.parametrize("name,c,tau,level", [
        ("Z2", [Fraction(31, 19)], 0.5, 9),
        ("P2-fiber", [Fraction(1, 2), Fraction(1, 2)], 0.25, 5),
    ])
    def test_weights_sum_to_volumes(self, name, c, tau, level):
        from ksm_stab.datasets import load_dataset

        data = load_dataset(name)
        hs = h_stats(data)
        fn = Functionals(data, sg.tau_mix(tau), normalize_field(c, hs, data.dual()), hstats=hs)
        geom = support_grid(fn.dual, level=level).geom
        assert fn.hat_weights(geom, "g").sum() == pytest.approx(fn.gstats.volume_g, rel=1e-13)
        assert fn.hat_weights(geom, "h").sum() == pytest.approx(float(hs.volume_h_exact), rel=1e-13)


class TestProfileBatch:
    @staticmethod
    def _moments(zs, _):
        return np.column_stack([np.ones(len(zs)), zs])

    @pytest.mark.parametrize("name,c,profiles", [
        ("Z2", [Fraction(31, 19)], [sg.tau_mix(0.25), sg.tau_mix(0.5), sg.tau_mix(1.0)]),
        ("P2-fiber", [Fraction(1, 2), Fraction(1, 2)], [sg.tau_mix(0.25), sg.tau_mix(0.7)]),
        ("B1", [Fraction(3, 10), Fraction(-1, 5)], [sg.linear(0.0), sg.linear(0.5)]),
        ("Z1", [Fraction(1, 4)], [sg.custom([(-0.9, 0.9), (0.0, 0.1), (0.5, -0.4), (1.5, -1.2)])]),
        ("Z2", [Fraction(31, 19)], [sg.mabuchi_log(1.0)]),
        ("P2-fiber", [0, 0], [None]),
    ])
    def test_rows_are_single_profile_values(self, name, c, profiles):
        from ksm_stab.datasets import load_dataset
        from ksm_stab.ksm import make_ksm

        if name == "B1":
            data = make_ksm(1, 2, [["1/3", "0"]], [(1, 0), (0, 1), (-1, -1)], "B1")
        else:
            data = load_dataset(name)
        fld = normalize_field(c, h_stats(data), data.dual())
        simplices = np.array(data.dual().simplex_coords())
        for p in (None, self._moments):
            batch = simplex_g_integrals(data, profiles, fld, simplices, p)
            singles = np.stack([simplex_g_integrals(data, q, fld, simplices, p) for q in profiles])
            assert batch.shape == singles.shape
            if len(profiles) == 1:  # a batch of one is the single-profile call
                assert np.array_equal(batch, singles)
            np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-14 * np.abs(singles).max())

    @pytest.mark.parametrize("name,side", [
        ("Z1", "lower"), ("Z1", "upper"), ("Z2", "lower"), ("Z2", "upper"),
    ])
    def test_tau_grid_matches_per_tau_loop(self, name, side):
        # the find_tau0 grid: tau = 0 alone, then all 1,000 tau > 0 in one
        # batch, against one call per tau on the boundary field
        from ksm_stab.datasets import load_dataset
        from ksm_stab.field_solver import path_interval_1d

        data = load_dataset(name)
        b1 = path_interval_1d(data)[side == "upper"]
        fld = normalize_field([-b1], h_stats(data), data.dual())
        simplices = np.array(data.dual().simplex_coords())
        taus = np.arange(0.0, 1.0005, 1e-3)
        fut = lambda zs, _: zs[:, 0]
        batched = np.concatenate([
            simplex_g_integrals(data, [sg.tau_mix(t) for t in ts], fld, simplices, fut).sum(axis=1)
            for ts in (taus[:1], taus[1:])
        ])
        loop = np.array([
            simplex_g_integrals(data, sg.tau_mix(t), fld, simplices, fut).sum() for t in taus
        ])
        assert np.max(np.abs(batched - loop)) <= 1e-13 * np.max(np.abs(loop))
        changes = lambda v: list(np.nonzero((v[:-1] > 0) != (v[1:] > 0))[0])
        assert changes(batched) == changes(loop)
        assert changes(batched) == ([613] if (name, side) == ("Z2", "lower") else [])

    def test_mixed_families_rejected(self, z2):
        fld = normalize_field([Fraction(31, 19)], h_stats(z2), z2.dual())
        simplices = np.array(z2.dual().simplex_coords())
        with pytest.raises(ValueError, match="profile batch"):
            simplex_g_integrals(z2, [sg.tau_mix(0.0), sg.tau_mix(0.5)], fld, simplices)

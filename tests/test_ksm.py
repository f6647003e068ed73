from fractions import Fraction

import numpy as np
import pytest

from ksm_stab.datasets import DATASETS, load_dataset
from ksm_stab.ksm import (
    KSMValidationError,
    check_ksm,
    h_stats,
    h_weight,
    make_ksm,
    reference_potential_uP,
)
from ksm_stab.polytope import integrate, support_function


class TestValidation:
    def test_z1_margin(self, z1):
        margins, violations = check_ksm(z1)
        assert not violations
        assert margins == [Fraction(1, 2)]

    def test_z2_margin(self, z2):
        margins, violations = check_ksm(z2)
        assert not violations
        assert margins == [Fraction(1, 3), Fraction(1, 3)]

    def test_boundary_mu_rejected(self):
        with pytest.raises(KSMValidationError):
            make_ksm(1, 1, [[1]], [(-1,), (1,)])

    def test_outside_mu_rejected(self):
        with pytest.raises(KSMValidationError):
            make_ksm(1, 1, [["3/2"]], [(-1,), (1,)])


class TestHWeight:
    def test_z1_at_zero(self, z1):
        assert h_weight(z1, [0.0]) == pytest.approx(1.0)

    def test_z2_at_one(self, z2):
        assert h_weight(z2, [1.0]) == pytest.approx(25 / 9)

    def test_empty_product(self, p1_fiber):
        assert h_weight(p1_fiber, [0.3]) == 1.0

    def test_outside_domain(self, z1):
        with pytest.raises(ValueError):
            h_weight(z1, [1.5])


class TestHStats:
    def test_z1(self, z1):
        hs = h_stats(z1)
        assert hs.volume_h == pytest.approx(2.0, abs=1e-13)
        assert hs.ke_defect[0] == pytest.approx(1 / 3, abs=1e-13)
        assert hs.barycenter_h[0] == pytest.approx(1 / 6, abs=1e-13)
        assert hs.volume_h_exact == 2
        assert hs.ke_defect_exact == (Fraction(1, 3),)
        assert not hs.ke_satisfied

    def test_z2(self, z2):
        hs = h_stats(z2)
        assert hs.volume_h_exact == Fraction(62, 27)
        assert hs.ke_defect_exact == (Fraction(8, 9),)
        assert hs.barycenter_h_exact == (Fraction(12, 31),)

    def test_symmetric_fiber(self, p1_fiber):
        hs = h_stats(p1_fiber)
        assert hs.volume_h == pytest.approx(2.0, abs=1e-13)
        assert abs(hs.barycenter_h[0]) < 1e-15
        assert hs.ke_satisfied

    def test_quadrature_matches_exact_channel(self):
        b1 = make_ksm(1, 2, [["1/3", "0"]], [(1, 0), (0, 1), (-1, -1)], "B1")
        for data in [*map(load_dataset, DATASETS), b1]:
            hs = h_stats(data)
            vol = float(hs.volume_h_exact)
            assert hs.volume_h == pytest.approx(vol, rel=1e-14)
            # a defect that vanishes exactly is held to the rounding of the volume
            for a, b in zip(hs.ke_defect, hs.ke_defect_exact):
                assert a == pytest.approx(float(b), rel=1e-14, abs=0 if b else 1e-14 * vol)

    def test_defect_linear_in_mu(self):
        # with a single base direction the defect is linear in mu
        vals = []
        for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            data = make_ksm(1, 1, [[t]], [(-1,), (1,)])
            vals.append(h_stats(data).ke_defect_exact[0])
        assert vals[2] - vals[1] == vals[1] - vals[0]


class TestReferencePotential:
    def test_log3_at_origin(self, z1):
        assert reference_potential_uP(z1, [0.0]) == pytest.approx(np.log(3.0))

    def test_dominates_support(self, z1, p2_fiber):
        rng = np.random.default_rng(0)
        for data in (z1, p2_fiber):
            dual = data.dual()
            ys = rng.normal(scale=10, size=(50, data.fiber_dimension))
            u = reference_potential_uP(data, ys)
            v = support_function(dual, ys)
            assert np.all(u >= v - 1e-12)

    def test_asymptotics_interval(self, z1):
        for y in (30.0, 50.0, -40.0):
            gap = reference_potential_uP(z1, [y]) - abs(y)
            assert 0 <= gap < 1e-12

    def test_bounded_against_support_on_window(self, p2_fiber):
        # u_P - v_{P*} stays bounded on |y| <= 50 (PSH_b membership)
        rng = np.random.default_rng(1)
        ys = rng.uniform(-50, 50, size=(400, 2))
        gap = reference_potential_uP(p2_fiber, ys) - support_function(p2_fiber.dual(), ys)
        assert np.all(gap >= -1e-12)
        assert np.max(gap) < 3.0

    def test_no_overflow(self, z1):
        assert np.isfinite(reference_potential_uP(z1, [5000.0]))


def test_h_positive_on_quadrature_nodes(z2):
    dual = z2.dual()
    val = integrate(dual, lambda zs: (h_weight(z2, zs[0]) * 0 + 1) * np.ones(zs.shape[0]))
    from ksm_stab.ksm import h_values

    from ksm_stab.polytope import _nodes_for

    nodes, _ = _nodes_for(dual, 10, 4)
    assert np.all(h_values(z2, nodes) > 0)
    assert val == pytest.approx(2.0)


def test_json_round_trip(z2):
    from ksm_stab.ksm import KSMData

    again = KSMData.from_json(z2.to_json())
    assert again.curvature_vectors == z2.curvature_vectors
    assert again.polytope == z2.polytope


def test_barycenter_strictly_interior(z1, z2, p2_fiber):
    # b_h lies strictly inside P*: <b_h, v> < 1 for every vertex v of P
    for data in (z1, z2, p2_fiber):
        hs = h_stats(data)
        for v in data.polytope.vertices:
            pairing = sum(b * x for b, x in zip(hs.barycenter_h_exact, v))
            assert pairing < 1

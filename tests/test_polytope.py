import math
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from ksm_stab.polytope import (
    FanoValidationError,
    PolytopeError,
    QuadratureError,
    QuadratureRule,
    UnsupportedDimensionError,
    check_fano,
    dual_polytope,
    integrate,
    integrate_monomial_exact,
    support_function,
    validate_fano,
)

INTERVAL = [(-1,), (1,)]
P2 = [(1, 0), (0, 1), (-1, -1)]
SQUARE = [(1, 0), (0, 1), (-1, 0), (0, -1)]


class TestValidation:
    def test_interval_valid(self):
        poly = validate_fano(INTERVAL)
        assert poly.dimension == 1
        assert set(poly.vertices) == {(-1,), (1,)}

    def test_p2_valid(self):
        poly = validate_fano(P2)
        assert poly.dimension == 2
        assert len(poly.facets) == 3

    def test_square_valid(self):
        poly = validate_fano(SQUARE)
        assert len(poly.facets) == 4

    def test_simplex_3d_valid(self):
        poly = validate_fano([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        assert poly.dimension == 3
        assert len(poly.facets) == 4

    def test_unimodularity_violation(self):
        poly, violations = check_fano([(2, 0), (0, 1), (-1, -1)])
        assert poly is None
        bad = [v for v in violations if v.condition == "unimodular"]
        assert any(set(v.where) == {0, 1} for v in bad)  # facet {(2,0),(0,1)}, det 2

    def test_origin_not_interior(self):
        _, violations = check_fano([(1, 0), (0, 1), (1, 1)])
        assert any(v.condition == "interior" for v in violations)

    def test_noninteger_vertex(self):
        _, violations = check_fano([(Fraction(1, 2),), (-1,)])
        assert any(v.condition == "integral" for v in violations)

    def test_non_simplicial_3d(self):
        # octahedron facets are triangles, but the cube's are squares
        cube = list(iproduct([-1, 1], repeat=3))
        _, violations = check_fano(cube)
        assert any(v.condition == "simplicial" for v in violations)

    def test_interior_point_flagged(self):
        _, violations = check_fano([(-1,), (0,), (1,)])
        assert any(v.condition == "vertex" for v in violations)

    def test_errors(self):
        with pytest.raises(PolytopeError):
            check_fano([])
        with pytest.raises(PolytopeError):
            check_fano([(1, 0), (1, 0), (0, 1)])
        with pytest.raises(PolytopeError):
            check_fano([(1, 0), (-1, 0)])  # not full-dimensional
        with pytest.raises(FanoValidationError):
            validate_fano([(2, 0), (0, 1), (-1, -1)])


class TestDual:
    def test_interval_self_dual(self):
        dual = dual_polytope(validate_fano(INTERVAL))
        assert sorted(float(v[0]) for v in dual.vertices) == [-1.0, 1.0]
        assert dual.lattice_points == ((-1,), (0,), (1,))
        assert dual.n_vertices == 2

    def test_p2_dual(self):
        dual = dual_polytope(validate_fano(P2))
        verts = {tuple(int(x) for x in v) for v in dual.vertices}
        assert verts == {(1, 1), (1, -2), (-2, 1)}
        assert dual.n_vertices == 3

    def test_square_dual(self):
        dual = dual_polytope(validate_fano(SQUARE))
        verts = {tuple(int(x) for x in v) for v in dual.vertices}
        assert verts == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert dual.n_vertices == 4

    def test_duality_pairing(self):
        # <v, w> <= 1 for vertices v of P, w of P*, equality on incident pairs
        poly = validate_fano(P2)
        dual = dual_polytope(poly)
        for fi, facet in enumerate(poly.facets):
            w = dual.vertices[fi]
            for vi, v in enumerate(poly.vertices):
                pairing = sum(Fraction(a) * b for a, b in zip(v, w))
                assert pairing <= 1
                assert (pairing == 1) == (vi in facet)

    def test_triangulation_partitions(self):
        for verts in (INTERVAL, P2, SQUARE):
            dual = dual_polytope(validate_fano(verts))
            vol_tri = integrate(dual, lambda zs: np.ones(zs.shape[0]))
            assert vol_tri == pytest.approx(float(dual.volume_exact()), abs=1e-12)


class TestSupport:
    def test_interval_values(self):
        dual = dual_polytope(validate_fano(INTERVAL))
        assert support_function(dual, [3.0]) == pytest.approx(3.0)
        assert support_function(dual, [0.0]) == 0.0

    def test_p2_value(self):
        dual = dual_polytope(validate_fano(P2))
        assert support_function(dual, [1.0, 0.0]) == pytest.approx(1.0)

    def test_homogeneous_and_convex(self):
        dual = dual_polytope(validate_fano(P2))
        rng = np.random.default_rng(0)
        for _ in range(50):
            y1, y2 = rng.normal(size=2), rng.normal(size=2)
            t = rng.uniform(0, 3)
            assert support_function(dual, t * y1) == pytest.approx(
                t * support_function(dual, y1), rel=1e-12
            )
            assert support_function(dual, 0.5 * (y1 + y2)) <= 0.5 * (
                support_function(dual, y1) + support_function(dual, y2)
            ) + 1e-12

    def test_vertex_max_dominates_lattice_max(self):
        dual = dual_polytope(validate_fano(P2))
        rng = np.random.default_rng(1)
        L = dual.lattice_array
        for _ in range(50):
            y = rng.normal(size=2)
            assert support_function(dual, y) >= float(np.max(L @ y)) - 1e-12


class TestIntegrate:
    def test_constant_interval(self):
        dual = dual_polytope(validate_fano(INTERVAL))
        assert integrate(dual, lambda zs: np.ones(zs.shape[0])) == pytest.approx(2.0, abs=1e-14)

    def test_p2_area(self):
        dual = dual_polytope(validate_fano(P2))
        assert integrate(dual, lambda zs: np.ones(zs.shape[0])) == pytest.approx(4.5, abs=1e-12)

    def test_weighted_moment(self):
        dual = dual_polytope(validate_fano(INTERVAL))
        val = integrate(dual, lambda zs: zs[:, 0] * (1 + zs[:, 0] / 2))
        assert val == pytest.approx(1 / 3, abs=1e-14)

    def test_error_estimate_and_nonfinite(self):
        dual = dual_polytope(validate_fano(INTERVAL))
        val, err = integrate(dual, lambda zs: np.exp(zs[:, 0]), return_error=True)
        assert val == pytest.approx(math.e - 1 / math.e, abs=1e-13)
        assert err < 1e-12
        from ksm_stab.polytope import QuadratureError

        with pytest.raises(QuadratureError), np.errstate(invalid="ignore"):
            integrate(dual, lambda zs: np.log(zs[:, 0]))  # NaN on half the nodes

    def test_3d_unsupported(self):
        poly = validate_fano([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
        with pytest.raises(UnsupportedDimensionError):
            integrate(dual_polytope(poly), lambda zs: np.ones(zs.shape[0]))

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(6) for b in range(6) if a + b <= 10][::3])
    def test_exactness_against_rational_oracle_2d(self, a, b):
        # degree-10 rule must reproduce the exact rational monomial integrals
        dual = dual_polytope(validate_fano(P2))
        exact = float(integrate_monomial_exact(dual, (a, b)))
        rule = QuadratureRule(degree=10, refinement=1)
        from ksm_stab.polytope import _eval_rule

        got = _eval_rule(dual, lambda zs: zs[:, 0] ** a * zs[:, 1] ** b, 10, 1)
        assert got == pytest.approx(exact, abs=1e-12 * max(1, abs(exact)))

    @pytest.mark.parametrize("a", range(0, 11, 2))
    def test_exactness_against_rational_oracle_1d(self, a):
        dual = dual_polytope(validate_fano(INTERVAL))
        exact = float(integrate_monomial_exact(dual, (a,)))
        from ksm_stab.polytope import _eval_rule

        got = _eval_rule(dual, lambda zs: zs[:, 0] ** a, 10, 1)
        assert got == pytest.approx(exact, abs=1e-13)


def test_json_round_trip():
    poly = validate_fano(P2)
    again = type(poly).from_json(poly.to_json())
    assert again == poly


def test_reference_rule_weights_positive_and_sum_to_volume():
    from ksm_stab.polytope import _reference_rule

    for dim, vol in ((1, 1.0), (2, 0.5)):
        nodes, weights = _reference_rule(dim, 10)
        assert np.all(weights > 0)
        assert float(np.sum(weights)) == pytest.approx(vol, rel=1e-14)


def test_integrate_non_smooth_2d_raises_within_node_budget():
    # |z1 - 1/3|^(1/4) is not smooth across a line through P*: refinement
    # never meets the 2D tolerance and must stop at the per-level node budget
    import time

    dual = dual_polytope(validate_fano(P2))
    t0 = time.perf_counter()
    with pytest.raises(QuadratureError):
        integrate(dual, lambda zs: np.abs(zs[:, 0] - 1 / 3) ** 0.25)
    assert time.perf_counter() - t0 < 5.0

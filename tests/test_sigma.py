import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksm_stab import sigma as sg


class TestEvaluate:
    def test_linear_triple(self):
        val, d1, d2 = sg.linear(0.0).evaluate(2.0)
        assert (val, d1, d2) == (-2.0, -1.0, 0.0)

    def test_mabuchi_triple(self):
        val, d1, d2 = sg.mabuchi_log(1.0).evaluate(0.0)
        assert (float(val), float(d1), float(d2)) == (0.0, -1.0, 1.0)

    def test_tau_half_triple(self):
        val, d1, d2 = sg.tau_mix(0.5).evaluate(0.0)
        assert (float(val), float(d1), float(d2)) == (0.0, -1.0, 0.5)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            sg.mabuchi_log(1.0).evaluate(-1.0)
        with pytest.raises(ValueError):
            sg.tau_mix(0.3).evaluate(-1.5)

    def test_tau_endpoints_match_families(self):
        ts = np.linspace(-0.9, 5.0, 40)
        s0, lin = sg.tau_mix(0.0), sg.linear(0.0)
        s1, log1 = sg.tau_mix(1.0), sg.mabuchi_log(1.0)
        assert np.allclose(s0.evaluate(ts)[0], lin.evaluate(ts)[0])
        assert np.allclose(s1.evaluate(ts)[0], log1.evaluate(ts)[0])

    @given(st.floats(min_value=-0.95, max_value=8.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_derivatives_match_finite_differences(self, t, tau):
        prof = sg.tau_mix(tau)
        h = 1e-6 * (1 + abs(t))
        if t - h <= prof.alpha:
            return
        _, d1, d2 = prof.evaluate(t)
        vm, v0, vp = (prof.evaluate(x)[0] for x in (t - h, t, t + h))
        fd1 = (vp - vm) / (2 * h)
        assert float(d1) == pytest.approx(fd1, rel=1e-6, abs=1e-6)


class TestAdmissibility:
    def test_linear(self):
        rep = sg.check_admissible(sg.linear(0.0))
        assert rep.condition_i and rep.admissible

    def test_constant(self):
        rep = sg.check_admissible(sg.constant(2.0))
        assert rep.condition_i
        assert rep.max_d1 == 0.0 and rep.min_d2 == 0.0

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.0])
    def test_tau_mix(self, tau):
        rep = sg.check_admissible(sg.tau_mix(tau), trange=(-0.99, 6.0))
        assert rep.condition_i

    def test_custom_numeric_flag(self):
        ts = np.linspace(-0.5, 3.0, 30)
        prof = sg.custom(list(zip(ts, -ts)))
        rep = sg.check_admissible(prof)
        assert rep.numeric_only
        assert rep.admissible


class TestGrowth:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_tau_mix_bound_is_one(self, tau):
        rep = sg.check_growth(sg.tau_mix(tau))
        assert rep.holds
        assert rep.a0 == pytest.approx(1.0, abs=1e-12)

    def test_mabuchi_exact(self):
        rep = sg.check_growth(sg.mabuchi_log(1.0))
        assert rep.holds
        assert rep.a0 == pytest.approx(1.0, rel=1e-12)

    def test_constant_fails_on_infinite_domain(self):
        prof = sg.SigmaProfile(
            "constant", -1.0, math.inf, {"c": 0.0}, sg.constant(0.0)._impl
        )
        rep = sg.check_growth(prof)
        assert not rep.holds

    def test_superlinear_vanishing_fails(self):
        # f = (t+1)^2 vanishes faster than linearly at alpha = -1
        def impl(t):
            w = t + 1.0
            return -2 * np.log(w), -2.0 / w, 2.0 / w**2

        prof = sg.SigmaProfile("custom", -1.0, math.inf, {}, impl)
        rep = sg.check_growth(prof)
        assert not rep.holds

    @pytest.mark.parametrize(
        "profile",
        [
            sg.SigmaProfile("constant", -1.0, math.inf, {"c": 0.0}, sg.constant(0.0)._impl),
            sg.SigmaProfile("linear", -1.0, math.inf, {"shift": 0.0}, sg.linear(0.0)._impl),
            sg.mabuchi_log(1.0),
            sg.mabuchi_log(2.5),
            *(sg.tau_mix(tau) for tau in (0.0, 0.25, 0.5, 1.0)),
            sg.custom([(t, -math.log(t + 1.0) - 0.3 * t) for t in np.linspace(-0.5, 3.0, 12)]),
        ],
        ids=lambda p: f"{p.kind}-{p.alpha}-{p.params.get('tau', p.params.get('shift', ''))}",
    )
    @pytest.mark.parametrize("span", [None, 2.2])
    def test_matches_scalar_loop(self, profile, span):
        """One vectorized f call gives the report of 401 scalar f calls."""
        scalar = SimpleNamespace(
            alpha=profile.alpha,
            beta=profile.beta,
            f=lambda ts: np.array([profile.f(t) for t in ts]),
        )
        t_max = None if span is None else profile.alpha + span
        got = sg.check_growth(profile, t_max=t_max)
        ref = sg.check_growth(scalar, t_max=t_max)
        assert (got.holds, got.argmin_t, got.detail) == (ref.holds, ref.argmin_t, ref.detail)
        if ref.a0 is None:
            assert got.a0 is None
        else:
            assert got.a0 == pytest.approx(ref.a0, rel=1e-15, abs=0)

    def test_infinite_alpha_not_applicable(self):
        with pytest.raises(ValueError):
            sg.check_growth(sg.linear(0.0))


class TestF:
    def test_positive_inside(self):
        prof = sg.tau_mix(0.7)
        ts = np.linspace(-0.99, 4.0, 50)
        assert np.all(prof.f(ts) > 0)

    def test_vanishes_at_alpha_when_blowup(self):
        assert sg.tau_mix(0.7).f(-1.0) == 0.0
        assert sg.mabuchi_log(2.0).f(-2.0) == 0.0

    def test_continuous_at_alpha_without_blowup(self):
        assert sg.tau_mix(0.0).f(-1.0) == pytest.approx(math.exp(-1.0))


def test_json_round_trip():
    for prof in (sg.constant(1.0), sg.linear(0.5), sg.mabuchi_log(2.0), sg.tau_mix(0.3)):
        again = sg.profile_from_json(prof.to_json())
        assert again.kind == prof.kind
        ts = 0.5
        assert float(again.evaluate(ts)[0]) == pytest.approx(float(prof.evaluate(ts)[0]))

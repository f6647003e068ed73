"""The three workloads: seeded inputs (built outside the timed region) and
the task list each one times.  Tasks call the public API (``ksm_stab.*``)
and ``cli.run`` where a CLI task exists; every output that has a reference
in references.json is checked against it.

Workloads:

* ``fields-moments`` -- field solvers, stability verdicts and g-moments,
  including boundary-touching 2D moments on P2-fiber;
* ``metric-2d``      -- three level-4 Ding minimizations in 2D;
* ``metric-1d``      -- 1D Ding minimizations with their verification
  channels, a geodesic, a probe and one level-12 grid.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import ksm_stab as ks
from ksm_stab import cli

from harness import KnownFailure, Record, Task

HERE = Path(__file__).resolve().parent
REFS = json.loads((HERE / "references.json").read_text())

B1_SPEC = {
    "n": 1,
    "l": 2,
    "mu": [["1/3", "0"]],
    "polytope": {"dimension": 2, "vertices": [[1, 0], [0, 1], [-1, -1]]},
    "label": "B1",
}
ABS_Z = {"pieces": [[["1"], "0"], [["-1"], "0"]], "R": "1"}
# the 2D boundary case that exhausts memory at this commit (it needs more
# than 4 GB), and the address-space cap of the child process that runs it:
# room for the interpreter with numpy and scipy (about 235 MiB) plus the
# smaller refinement levels, so the failure shows in about 2 s
CAPPED_TAU = 0.25
CAPPED_AS_BYTES = 384 << 20
# iterations of the square-fiber 2D solve: 20 leave it at TV 1.1e-2, against
# the 1e-4 target (60 reach only 2.6e-3, 400 do not reach 2e-3)
SQUARE_MAX_ITER = 20


def F(s) -> float:
    return float(Fraction(s))


def _solver(cfg) -> dict:
    return cli.run(cfg)["results"]["solver"]


def _grid_pick(rng, table: dict, n: int, lo: float, hi: float) -> list[float]:
    keys = sorted(float(k) for k, v in table.items() if v is not None and lo <= float(k) <= hi)
    return [keys[i] for i in sorted(rng.choice(len(keys), size=n, replace=False))]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def build_inputs(workload: str, seed: int) -> dict:
    """Seeded parameters plus the datasets and duals the tasks use."""
    rng = np.random.default_rng(seed)
    if workload == "fields-moments":
        p2 = ks.load_dataset("P2-fiber")
        p2.dual()
        return {
            "path_taus": {
                "Z1": _grid_pick(rng, REFS["path_b1"]["Z1"], 2, 0.05, 0.95),
                "Z2": _grid_pick(rng, REFS["path_b1"]["Z2"], 2, 0.05, 0.6),
            },
            "p2": p2,
        }
    if workload == "metric-2d":
        data = {name: ks.load_dataset(name) for name in ("P2-fiber", "square-fiber")}
        data["B1"] = ks.KSMData.from_json(B1_SPEC)
        for d in data.values():
            d.dual()
        # sigma shifts scale g by a constant: the normalized problem and its
        # Ding minimum are unchanged, the volumes scale by exp(-shift)
        return {"data": data, "shift": {k: float(rng.uniform(-1, 1)) for k in data}}
    if workload == "metric-1d":
        data = {name: ks.load_dataset(name) for name in ("Z1", "Z2", "p1-fiber")}
        for d in data.values():
            d.dual()
        t_mid = sorted(float(x) for x in rng.uniform(1.0, 50.0, size=2))
        return {
            "data": data,
            "t_values": [0.0, round(t_mid[0], 3), round(t_mid[1], 3), 50.0],
            "probe_seed": int(rng.integers(0, 2**31 - 1)),
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# fields-moments
# ---------------------------------------------------------------------------


def _tau0_z2(rec: Record) -> None:
    rep = _solver({"task": "solve-field", "ksm": "Z2", "field": {"solve": "tau0"}})
    ref = REFS["tau0"]["Z2"]["lower"]
    rec.require("success", rep["success"])
    # the program certifies |I(tau0)| <= 1e-11, i.e. tau0 to 1e-11 / |I'(tau0)|
    tol = 1e-11 / abs(ref["dI_dtau"]) / ref["tau0"]
    rec.close("tau0", rep["diagnostics"]["tau0"], ref["tau0"], tol)
    lower = rep["diagnostics"]["lower"]
    rec.require("sign_changes", np.allclose(lower["sign_changes"], ref["sign_changes"], atol=1e-12))
    ex = REFS["exact"]["Z2_boundary_k"]
    rec.require("boundary_k", lower["boundary_k"] == [ex["minus1"], ex["plus1"]])


def _tau0_z1(rec: Record) -> None:
    """Z1 has no boundary root on either side: the correct report is
    success false with empty sign-change lists."""
    rep = _solver({"task": "solve-field", "ksm": "Z1", "field": {"solve": "tau0"}})
    rec.require("no root reported", not rep["success"] and rep["message"].startswith("no boundary root"))
    for side in ("lower", "upper"):
        got, ref = rep["diagnostics"][side], REFS["tau0"]["Z1"][side]
        rec.require(f"{side} sign_changes", got["sign_changes"] == ref["sign_changes"] == [])
        rec.close(f"{side} I", [got["I_at_0"], got["I_at_1"]], [ref["I_at_0"], ref["I_at_1"]], 1e-10)


def _reproduce_z1(rec: Record) -> None:
    res = cli.run({"task": "reproduce", "example": "Z1"})["results"]
    rec.require("all_certified", res["all_certified"])
    for row in res["roots"]:
        rec.close(f"b1 tau={row['tau']}", row["b1"], REFS["path_b1"]["Z1"][repr(row["tau"])], 1e-9)


def _path(name: str, tau: float):
    def fn(rec: Record) -> None:
        rep = _solver({"task": "solve-field", "ksm": name, "field": {"solve": "path", "tau": tau}})
        rec.require("success", rep["success"])
        rec.close("b1", rep["diagnostics"]["b1"], REFS["path_b1"][name][repr(tau)], 1e-9)

    return fn


def _soliton(name: str, spec):
    def fn(rec: Record) -> None:
        rep = _solver({"task": "solve-field", "ksm": spec, "field": {"solve": "soliton"}})
        rec.require("success", rep["success"])
        rec.close("c", rep["coefficients"], REFS["soliton"][name], 1e-10)

    return fn


def _general_z1(rec: Record) -> None:
    """The general solver on Z1 at every tau of the reference grid in
    [0.05, 0.95].  Its error grows towards small tau (4.4e-10 at 0.1), so the
    whole grid keeps max_rel_err from depending on which tau a seed picks."""
    for key, b1 in sorted(REFS["path_b1"]["Z1"].items(), key=lambda kv: float(kv[0])):
        tau = float(key)
        if b1 is None or not 0.05 <= tau <= 0.95:
            continue
        rep = _solver({
            "task": "solve-field", "ksm": "Z1", "sigma": {"kind": "tau_mix", "tau": tau},
            "field": {"solve": "general", "c0": [0.0]},
        })
        rec.require(f"success tau={key}", rep["success"])
        # the path field with b1 has c = -b1
        rec.close(f"c tau={key}", rep["coefficients"], [-b1], 1e-9)


def _general_b1(rec: Record) -> None:
    rep = _solver({
        "task": "solve-field", "ksm": B1_SPEC, "sigma": {"kind": "linear"},
        "field": {"solve": "general", "c0": [0.0, 0.0]},
    })
    rec.require("success", rep["success"])
    # for sigma = linear the Futaki root is the soliton field
    rec.close("c", rep["coefficients"], REFS["soliton"]["B1"], 1e-9)


def _stability(cfg: dict, check):
    def fn(rec: Record) -> None:
        check(rec, cli.run(cfg)["results"])

    return fn


def _check_z1_constant(rec, res):
    v = res["verdict"]
    ex = REFS["exact"]
    rec.require("unstable", v["status"] == "unstable")
    rec.close("barycenter_g", v["barycenter_g"], [F(ex["Z1_constant_barycenter"])], 1e-10)
    rec.close("destabilizer", v["destabilizer"]["invariant"], F(ex["Z1_constant_destabilizer_invariant"]), 1e-10)


def _check_z2_mabuchi(rec, res):
    rec.require("unstable", res["verdict"]["status"] == "unstable")
    rec.close("futaki", res["verdict"]["reduced_futaki"], [F(REFS["exact"]["Z2_mabuchi_futaki"])], 1e-8)


def _check_z2_soliton(rec, res):
    rec.require("polystable", res["verdict"]["status"] == "polystable_uniform")
    rec.close("c", res["field"]["c"], REFS["soliton"]["Z2"], 1e-10)


def _p2_boundary_field(p2):
    return ks.normalize_field([Fraction(1, 2), Fraction(1, 2)], ks.h_stats(p2), p2.dual())


def _gstats_p2(inputs: dict, tau: float):
    def fn(rec: Record) -> None:
        p2 = inputs["p2"]
        gs = ks.g_stats(p2, ks.tau_mix(tau), _p2_boundary_field(p2))
        ref = REFS["p2_boundary"][repr(tau)]
        tol = 1e-12 if tau == 1.0 else 1e-9
        rec.close("volume_g", gs.volume_g, ref["volume_g"], tol)
        rec.close("futaki", gs.reduced_futaki, ref["futaki"], tol)

    return fn


def capped_gstats_p2() -> dict:
    """Body of the capped child process (see bench/child.py)."""
    p2 = ks.load_dataset("P2-fiber")
    gs = ks.g_stats(p2, ks.tau_mix(CAPPED_TAU), _p2_boundary_field(p2))
    return {"volume_g": gs.volume_g, "futaki": [float(x) for x in gs.reduced_futaki]}


def _gstats_p2_capped(rec: Record) -> None:
    """The tau = 0.25 boundary moments in a child process whose address space
    is capped; at this commit polytope.integrate exhausts it (MemoryError)."""
    out = run_child(["capped"], limit_as=CAPPED_AS_BYTES)
    if out.get("error_type") in ("MemoryError", "SystemError"):
        # numpy reports an exhausted address space as MemoryError, or as
        # SystemError when an allocation inside a ufunc fails
        raise MemoryError(f"capped child: {out['error_type']}: {out['error']}")
    if "error" in out:
        # a crash, a timeout or any other exception of the child
        raise RuntimeError(f"capped child: {out.get('error_type')}: {out['error']}")
    ref = REFS["p2_boundary"][repr(CAPPED_TAU)]
    rec.close("volume_g", out["volume_g"], ref["volume_g"], 1e-9)
    rec.close("futaki", out["futaki"], ref["futaki"], 1e-9)


def _metric_z2_tau0_coarse(rec: Record) -> None:
    tau0 = REFS["tau0"]["Z2"]["lower"]["tau0"]
    res = cli.run({
        "task": "solve-metric", "ksm": "Z2", "sigma": {"kind": "tau_mix", "tau": tau0},
        "field": {"c": ["31/19"]}, "level": 7,
    })["results"]
    rec.solve("Z2 tau0 level 7", res["metric"]["converged"], res["metric"]["residual_tv"])


def fields_moments(inputs: dict) -> list[Task]:
    tasks = [
        Task("tau0-Z2", _tau0_z2),
        Task("tau0-Z1", _tau0_z1),
        Task("reproduce-Z1", _reproduce_z1),
    ]
    for name, taus in inputs["path_taus"].items():
        tasks += [Task(f"path-{name}-{tau}", _path(name, tau)) for tau in taus]
    tasks += [
        Task("soliton-Z2", _soliton("Z2", "Z2")),
        Task("soliton-P2-fiber", _soliton("P2-fiber", "P2-fiber")),
        Task("soliton-B1", _soliton("B1", B1_SPEC)),
        Task("general-Z1-tau_mix-grid", _general_z1),
        Task("general-B1-linear", _general_b1),
        Task("stability-Z1-constant", _stability(
            {"task": "stability", "ksm": "Z1", "sigma": {"kind": "constant"}, "field": {"c": ["0"]}},
            _check_z1_constant)),
        Task("stability-Z2-mabuchi", _stability(
            {"task": "stability", "ksm": "Z2", "sigma": {"kind": "mabuchi_log", "shift": 1.0},
             "field": {"c": ["31/19"]}},
            _check_z2_mabuchi)),
        Task("stability-Z2-soliton", _stability(
            {"task": "stability", "ksm": "Z2", "sigma": {"kind": "linear"}, "field": {"solve": "soliton"}},
            _check_z2_soliton)),
    ]
    tasks += [Task(f"gstats-P2-boundary-{tau}", _gstats_p2(inputs, tau)) for tau in (1.0, 0.9, 0.75)]
    tasks += [
        Task(
            f"gstats-P2-boundary-{CAPPED_TAU}-capped",
            _gstats_p2_capped,
            known_failure=KnownFailure(
                "polytope.integrate doubles refinement without a node budget "
                "and exhausts memory (ROADMAP item 2)",
                error="MemoryError",
            ),
        ),
        Task("metric-Z2-tau0-level7", _metric_z2_tau0_coarse),
    ]
    return tasks


# ---------------------------------------------------------------------------
# metric-2d
# ---------------------------------------------------------------------------


def _field(data, coeffs):
    return ks.normalize_field(coeffs, ks.h_stats(data), data.dual())


def _identity(rec: Record, sol, fn) -> None:
    """int e^{-u} = |P*|_g after the solver's normalization (tests: 1e-2)."""
    total = sol.u.exp_integral(full=True)["total"]
    rec.close("int exp(-u) = |P*|_g", total, fn.gstats.volume_g, 1e-2)


def _ding_p2(inputs: dict):
    def fn_(rec: Record) -> None:
        d, s = inputs["data"]["P2-fiber"], inputs["shift"]["P2-fiber"]
        fn = ks.Functionals(d, ks.constant(s), _field(d, [0, 0]))
        sol = ks.minimize_ding(fn, level=4, tol_tv=2e-3)
        rec.solve("P2-fiber", sol.converged, sol.residual_tv)
        _identity(rec, sol, fn)
        rec.close("volume_g", fn.gstats.volume_g, F(REFS["volume_g"]["P2-fiber-constant0"]) * math.exp(-s), 1e-9)
        # level-4 discretization of the Fubini-Study minimum, -5/2 + log 2
        rec.close("ding_value", sol.ding_value, REFS["ding_min"]["P2-fiber"], 5e-2)

    return fn_


def _ding_b1(inputs: dict):
    def fn_(rec: Record) -> None:
        d, s = inputs["data"]["B1"], inputs["shift"]["B1"]
        rep = ks.solve_soliton(d)
        rec.require("soliton success", rep.success)
        rec.close("soliton c", rep.coefficients, REFS["soliton"]["B1"], 1e-10)
        fn = ks.Functionals(d, ks.linear(s), _field(d, list(rep.coefficients)))
        sol = ks.minimize_ding(fn, level=4, tol_tv=2e-3, max_iter=400)
        rec.solve("B1", sol.converged, sol.residual_tv)
        _identity(rec, sol, fn)
        rec.close("volume_g", fn.gstats.volume_g, REFS["volume_g"]["B1-soliton-linear0"] * math.exp(-s), 1e-9)
        rec.output["ding_value"] = sol.ding_value

    return fn_


def _ding_square(inputs: dict):
    def fn_(rec: Record) -> None:
        d, s = inputs["data"]["square-fiber"], inputs["shift"]["square-fiber"]
        fn = ks.Functionals(d, ks.constant(s), _field(d, [0, 0]))
        sol = ks.minimize_ding(fn, level=4, max_iter=SQUARE_MAX_ITER)
        rec.solve("square-fiber", sol.converged, sol.residual_tv)
        _identity(rec, sol, fn)
        rec.close("volume_g", fn.gstats.volume_g, F(REFS["volume_g"]["square-fiber-constant0"]) * math.exp(-s), 1e-9)
        rec.close("ding_value", sol.ding_value, REFS["ding_min"]["square-fiber"], 5e-2)

    return fn_


def metric_2d(inputs: dict) -> list[Task]:
    return [
        Task("ding-P2-fiber-level4", _ding_p2(inputs)),
        Task("ding-B1-soliton-level4", _ding_b1(inputs)),
        Task(
            f"ding-square-fiber-level4-cap{SQUARE_MAX_ITER}",
            _ding_square(inputs),
            known_failure=KnownFailure(
                "the projected-gradient 2D minimizer stalls above tol_tv 1e-4 "
                "on square-fiber (ROADMAP item 3)",
                checks=("square-fiber converged",),
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# metric-1d
# ---------------------------------------------------------------------------


def _ding_soliton_1d(inputs: dict, name: str, level=None):
    def fn_(rec: Record) -> None:
        d = inputs["data"][name]
        rep = ks.solve_soliton(d)
        rec.close("soliton c", rep.coefficients, REFS["soliton"][name], 1e-10)
        fn = ks.Functionals(d, ks.linear(0.0), _field(d, list(rep.coefficients)))
        sol = ks.minimize_ding(fn, level=level)
        rec.solve(name, sol.converged, sol.residual_tv)
        total = sol.u.exp_integral(full=True)["total"]
        rec.close("int exp(-u) = |P*|_g", total, fn.gstats.volume_g, 1e-8)
        rec.output["ding_value"] = sol.ding_value

    return fn_


def _product_dual(z):
    """Legendre dual of 2 log cosh(y/2) + log 2 on [-1, 1] (closed form)."""
    with np.errstate(all="ignore"):
        w = (1 + z) * np.log1p(z) + (1 - z) * np.log1p(-z) - math.log(2)
    return np.where(np.abs(z) >= 1.0, math.log(2), w)


def _ding_product(inputs: dict):
    def fn_(rec: Record) -> None:
        d = inputs["data"]["p1-fiber"]
        fn = ks.Functionals(d, ks.constant(0.0), _field(d, [0]))
        sol = ks.minimize_ding(fn)
        rec.solve("product", sol.converged, sol.residual_tv)
        rec.close("ding_value", sol.ding_value, REFS["ding_min"]["p1-fiber"], 1e-3)
        rec.close("dual values", sol.u.values, REFS["product_dual_level9"], 1e-2)
        oracle = ks.grid_from_values(d.dual(), lambda zs: _product_dual(zs[:, 0]))
        res = ks.ode_residual_1d(oracle, fn)
        rec.require("oracle ODE residual <= 1e-3", res <= 1e-3)
        rec.output["oracle ODE residual"] = res

    return fn_


def _ding_z2_tau0(inputs: dict):
    def fn_(rec: Record) -> None:
        d = inputs["data"]["Z2"]
        tau0 = REFS["tau0"]["Z2"]["lower"]["tau0"]
        fn = ks.Functionals(d, ks.tau_mix(tau0), _field(d, [Fraction(31, 19)]))
        sol = ks.minimize_ding(fn)
        rec.solve("Z2 tau0", sol.converged, sol.residual_tv)
        rec.require("non-uniform mode", sol.mode == "non_uniform")
        am = ks.alexandrov_measure(sol.u, fn)
        rec.close("Alexandrov total", am.total, 1.0, 1e-6)
        ode = ks.ode_residual_1d(sol.u, fn)
        rec.require("ODE residual finite", math.isfinite(ode))
        _, C, rep = ks.build_subsolution(fn)
        rec.require("subsolution", math.isfinite(C) and C > 0 and rep["mode"] == "non_uniform")
        rec.output.update({"ding_value": sol.ding_value, "ode": ode, "C": C})

    return fn_


C09 = "c09: chord slope at t=50 within 1e-3"


def _geodesic_z1(inputs: dict):
    def fn_(rec: Record) -> None:
        res = cli.run({
            "task": "geodesic", "ksm": "Z1", "sigma": {"kind": "linear"},
            "field": {"solve": "soliton"}, "phi": ABS_Z, "t_values": inputs["t_values"],
        })["results"]
        inv = res["ding_invariant"]
        rec.close("ding_invariant", inv, REFS["z1_soliton_abs_invariant"], 1e-9)
        for row in res["values"][1:]:
            t, gap = row["t"], abs(row["chord_slope"] - inv)
            rec.output[f"slope t={t}"] = row["chord_slope"]
            # the log(2t)/t convergence envelope of the chord slope
            rec.require(f"envelope t={t}", gap <= (math.log(2 * t) + 2.0) / t)
        # acceptance criterion c09 as stated: red by design (see README)
        rec.require(C09, abs(res["values"][-1]["chord_slope"] - inv) <= 1e-3)

    return fn_


def _probe_z1(inputs: dict):
    def fn_(rec: Record) -> None:
        res = cli.run({
            "task": "probe", "ksm": "Z1", "sigma": {"kind": "linear"},
            "field": {"solve": "soliton"}, "samples": 12, "seed": inputs["probe_seed"],
        })["results"]
        rec.require("coercivity evidence", res["evidence"] and res["delta"] > 0)
        rec.output.update({"delta": res["delta"], "C": res["C"]})

    return fn_


def metric_1d(inputs: dict) -> list[Task]:
    return [
        Task("ding-Z1-soliton", _ding_soliton_1d(inputs, "Z1")),
        Task("ding-Z2-soliton", _ding_soliton_1d(inputs, "Z2")),
        Task("ding-product-oracle", _ding_product(inputs)),
        Task("ding-Z2-tau0-verify", _ding_z2_tau0(inputs)),
        Task(
            "geodesic-Z1",
            _geodesic_z1(inputs),
            known_failure=KnownFailure(
                "acceptance criterion c09 is red by design: the chord carries "
                "a log(2t)/t correction (README)",
                checks=(C09,),
            ),
        ),
        Task("probe-Z1", _probe_z1(inputs)),
        Task("ding-Z2-soliton-level12", _ding_soliton_1d(inputs, "Z2", level=12)),
    ]


TASKS = {"fields-moments": fields_moments, "metric-2d": metric_2d, "metric-1d": metric_1d}

# Median seconds per pass, and of the set-up measurement (four fresh
# interpreters), on the 2-core reference host.  A run makes
# (seconds - setup) // pass passes, at least one: the pass count follows from
# the arguments alone, never from the host's momentary speed, so every run of
# a workload has the same structure.
NOMINAL_PASS_S = {"fields-moments": 15.3, "metric-2d": 20.0, "metric-1d": 6.9}
NOMINAL_SETUP_S = 4.0


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def run_child(args: list[str], limit_as: int | None = None, timeout: float = 120.0) -> dict:
    """Run bench/child.py in a fresh interpreter and return its JSON line."""

    def cap():
        if limit_as is not None:
            resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))

    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=timeout, preexec_fn=cap,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return json.loads(lines[-1])

"""Command line interface and run orchestration.

Subcommands: ``validate``, ``stability``, ``solve-field``, ``solve-metric``,
``geodesic``, ``probe``, ``reproduce``.  Every run is described by a JSON
config (``--config`` or inline flags), produces a deterministic JSON report
(no timestamps, fixed summation orders) and optional CSV plot data.  Exit
code 0 means the computation finished, whatever the mathematical verdict;
nonzero means the run itself failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .convex import PLConvex, grid_from_values, support_grid
from .datasets import dataset_names, load_dataset
from .field_solver import (
    find_tau0,
    path_interval_1d,
    solve_general,
    solve_path_1d,
    solve_soliton,
)
from .functionals import (
    Functionals,
    g_stats,
    normalize_field,
    stability_verdict,
)
from .ksm import KSMData, check_ksm, h_stats
from .ma_solver import DEFAULT_TOL_TV, build_subsolution, minimize_ding
from .polytope import check_fano
from .sigma import profile_from_json
from . import sigma as sigma_mod

TASKS = (
    "validate",
    "stability",
    "solve-field",
    "solve-metric",
    "geodesic",
    "probe",
    "reproduce",
)

SCHEMA = "ksm-stab-report/1"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def normalize_config(cfg: dict) -> dict:
    """Fill defaults and validate the run configuration."""
    out = dict(cfg)
    task = out.get("task")
    if task not in TASKS:
        raise ConfigError(f"config needs a task in {TASKS}, got {task!r}")
    # reproduce --example carries its own dataset; everything else needs one
    named_reproduction = (
        task == "reproduce" and out.get("example") and not out.get("classical")
    )
    if not named_reproduction and "ksm" not in out:
        raise ConfigError(
            "config needs 'ksm' (dataset name, inline data, or {'path': ...})"
        )
    out.setdefault("tol", 1e-8)
    out.setdefault("plots", False)
    out.setdefault("seed", 0)
    if task in ("stability", "solve-metric", "geodesic", "probe"):
        out.setdefault("sigma", {"kind": "constant", "c": 0.0})
    return out


def load_ksm(spec) -> KSMData:
    if isinstance(spec, str):
        return load_dataset(spec)
    if isinstance(spec, dict) and "path" in spec:
        with open(spec["path"]) as f:
            return KSMData.from_json(json.load(f))
    if isinstance(spec, dict):
        return KSMData.from_json(spec)
    raise ConfigError(f"cannot interpret ksm spec {spec!r}")


def _solver_kwargs(cfg):
    kw = {}
    if cfg.get("solver_tol") is not None:
        kw["tol"] = float(cfg["solver_tol"])
    if cfg.get("max_iter") is not None:
        kw["max_iter"] = int(cfg["max_iter"])
    return kw


def _solve_field(cfg, data, method):
    """Run the field solver ``method`` (soliton | path | tau0 | general) with
    the config's solver settings and return its SolveReport."""
    spec = cfg.get("field", {})
    kw = _solver_kwargs(cfg)
    if method == "soliton":
        return solve_soliton(data, **kw)
    if method == "path":
        return solve_path_1d(data, float(spec["tau"]), **kw)
    if method == "tau0":
        return find_tau0(data, **kw)[1]
    if method == "general":
        if "sigma" not in cfg:
            raise ConfigError("the general solver needs a 'sigma' profile")
        profile = profile_from_json(cfg["sigma"])
        return solve_general(data, profile, spec.get("c0", [0.0] * data.fiber_dimension), **kw)
    raise ConfigError(f"unknown field solve method {method!r}")


def resolve_field(cfg, data, hs):
    """The config's field: explicit coefficients ``c``, or the solution of
    its ``solve`` method.  Returns (field or None if the solve failed,
    SolveReport or None)."""
    spec = cfg.get("field", {"c": [0.0] * data.fiber_dimension})
    if "c" in spec:
        return normalize_field(spec["c"], hs, data.dual()), None
    rep = _solve_field(cfg, data, spec.get("solve"))
    if not rep.success or rep.coefficients is None:
        return None, rep
    return normalize_field(list(rep.coefficients), hs, data.dual()), rep


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------


def _task_validate(cfg, out):
    spec = cfg["ksm"]
    if isinstance(spec, dict) and "polytope" in spec and "n" in spec:
        poly, violations = check_fano(spec["polytope"]["vertices"])
        res = {"fano_violations": [v.detail for v in violations]}
        if poly is not None:
            mu = tuple(tuple(Fraction(x) for x in row) for row in spec.get("mu", []))
            data = KSMData(int(spec["n"]), int(spec["l"]), mu, poly, spec.get("label", ""))
            margins, kviol = check_ksm(data)
            res["ksm_violations"] = kviol
            res["positivity_margins"] = [str(m) for m in margins]
            res["valid"] = not kviol
        else:
            res["valid"] = False
        return res
    data = load_ksm(spec)
    margins, kviol = check_ksm(data)
    return {
        "fano_violations": [],
        "ksm_violations": kviol,
        "positivity_margins": [str(m) for m in margins],
        "valid": not kviol,
        "dual_vertices": [[str(x) for x in v] for v in data.dual().vertices],
        "n_dual_vertices": data.dual().n_vertices,
        "lattice_points": [list(p) for p in data.dual().lattice_points],
    }


def _stats_block(hs, gs):
    return {
        "h": {
            "volume": hs.volume_h,
            "barycenter": [float(x) for x in hs.barycenter_h],
            "ke_defect": [float(x) for x in hs.ke_defect],
            "ke_satisfied": hs.ke_satisfied,
        },
        "g": {
            "volume": gs.volume_g,
            "barycenter": [float(x) for x in gs.barycenter_g],
            "reduced_futaki": [float(x) for x in gs.reduced_futaki],
            "A": gs.A,
            "B": gs.B,
        },
    }


def _task_stability(cfg, out):
    data = load_ksm(cfg["ksm"])
    profile = profile_from_json(cfg["sigma"])
    hs = h_stats(data)
    fld, solve_rep = resolve_field(cfg, data, hs)
    res = {"solver": solve_rep.to_json() if solve_rep else None}
    if fld is None:
        res["verdict"] = None
        res["warning"] = "field solve failed; no verdict"
        return res
    gs = g_stats(data, profile, fld)
    verdict = stability_verdict(gs, profile, fld, data, tol=float(cfg["tol"]))
    res.update(_stats_block(hs, gs))
    res["field"] = {"c": list(fld.coeffs), "C_V": fld.C_V, "k_vertex_values": list(fld.vertex_values)}
    res["verdict"] = verdict.to_json()
    if verdict.boundary_touching:
        res["warning"] = "non-uniform mode: g vanishes on a face of P*"
    return res


def _task_solve_field(cfg, out):
    data = load_ksm(cfg["ksm"])
    rep = _solve_field(cfg, data, cfg.get("field", {}).get("solve", "soliton"))
    return {"solver": rep.to_json()}


def _task_solve_metric(cfg, out):
    data = load_ksm(cfg["ksm"])
    profile = profile_from_json(cfg["sigma"])
    hs = h_stats(data)
    fld, solve_rep = resolve_field(cfg, data, hs)
    if fld is None:
        return {"solver": solve_rep.to_json(), "warning": "field solve failed"}
    fn = Functionals(data, profile, fld)
    sol = minimize_ding(fn, level=cfg.get("level"), tol_tv=cfg.get("ma_tol"))
    res = {
        "solver": solve_rep.to_json() if solve_rep else None,
        "metric": sol.to_json(),
    }
    res.update(_stats_block(fn.hstats, fn.gstats))
    if cfg.get("plots") and out is not None:
        u = sol.u
        zs = u.nodes[:, 0:1] if u.dimension == 1 else u.nodes
        _write_csv(
            out / "dual_potential.csv",
            ["z" + str(i + 1) for i in range(u.dimension)] + ["u_star"],
            np.column_stack([zs, u.values]),
        )
        if u.dimension == 1:
            ys, uv = u.primal_grid(cfg.get("window"))
            du = np.gradient(uv, ys[:, 0])
            _write_csv(out / "primal_potential.csv", ["y", "u", "du"], np.column_stack([ys, uv, du]))
    return res


def _task_geodesic(cfg, out):
    data = load_ksm(cfg["ksm"])
    profile = profile_from_json(cfg["sigma"])
    hs = h_stats(data)
    fld, solve_rep = resolve_field(cfg, data, hs)
    if fld is None:
        return {"solver": solve_rep.to_json(), "warning": "field solve failed"}
    fn = Functionals(data, profile, fld)
    phi = PLConvex.from_json(cfg["phi"])
    stats = _stats_block(fn.hstats, fn.gstats)
    ts = [float(t) for t in cfg.get("t_values", [0.0, 1.0, 2.0, 5.0, 10.0])]
    u0 = support_grid(data.dual(), level=cfg.get("level"))
    inv = fn.ding_invariant(phi)
    D0 = fn.ding(u0)

    def at(t):
        if t == 0.0:
            return D0
        return fn.ding(fn.geodesic_point(u0, phi, t))

    Ds = [at(t) for t in ts]
    rows = [
        (t, D, (D - D0) / t if t > 0 else float("nan")) for t, D in zip(ts, Ds)
    ]
    if cfg.get("plots") and out is not None:
        _write_csv(out / "geodesic.csv", ["t", "ding", "chord_slope"], rows)
    return {
        "ding_invariant": inv,
        "values": [{"t": t, "ding": D, "chord_slope": s} for t, D, s in rows],
        **stats,
    }


def _task_probe(cfg, out):
    data = load_ksm(cfg["ksm"])
    profile = profile_from_json(cfg["sigma"])
    hs = h_stats(data)
    fld, solve_rep = resolve_field(cfg, data, hs)
    if fld is None:
        return {"solver": solve_rep.to_json(), "warning": "field solve failed"}
    fn = Functionals(data, profile, fld)
    rng = np.random.default_rng(int(cfg["seed"]))
    n_samples = int(cfg.get("samples", 12))
    dual = data.dual()
    samples = []
    for _ in range(n_samples):
        u = grid_from_values(dual, _random_convex_values(rng, dual, cfg.get("level")), level=cfg.get("level"))
        samples.append(u)
    for t in (2.0, 8.0):
        phi = PLConvex.make([((1,) * data.fiber_dimension, 0), ((-1,) * data.fiber_dimension, 0)], offset=1)
        u0 = support_grid(dual, level=cfg.get("level"))
        samples.append(fn.geodesic_point(u0, phi, t))
    probe = fn.coercivity_probe(samples, j_kind=cfg.get("j_kind", "red"))
    if cfg.get("plots") and out is not None:
        _write_csv(out / "probe.csv", ["j", "ding"], probe["table"])
    return {
        "solver": solve_rep.to_json() if solve_rep else None,
        **_stats_block(fn.hstats, fn.gstats),
        "delta": probe["delta"],
        "C": probe["C"],
        "evidence": probe["evidence"],
        "message": probe["message"],
        "table": [{"j": j, "ding": d} for j, d in probe["table"]],
    }


def _random_convex_values(rng, dual, level):
    def build(zs):
        m = zs.shape[0]
        k = 4
        slopes = rng.uniform(-2, 2, size=(k, zs.shape[1]))
        offs = rng.uniform(-1, 1, size=k)
        return np.max(zs @ slopes.T + offs, axis=1)

    return build


def reproduce_classical(data: KSMData) -> dict:
    """Classical criteria: the KE defect test and the soliton solve."""
    hs = h_stats(data)
    sol = solve_soliton(data)
    return {
        "ke_defect": [float(x) for x in hs.ke_defect],
        "ke_defect_exact": [str(x) for x in hs.ke_defect_exact],
        "ke_criterion_satisfied": hs.ke_satisfied,
        "soliton": sol.to_json(),
        "soliton_exists": sol.success,
    }


def _reproduce_z1(cfg, out):
    data = load_dataset("Z1")
    taus = [0.0, 0.25, 0.5, 0.75, 1.0]

    reports = [solve_path_1d(data, tau) for tau in taus]
    lo, hi = path_interval_1d(data)
    rows = []
    for tau, rep in zip(taus, reports):
        ev = rep.diagnostics["endpoint_values"]
        rows.append(
            {
                "tau": tau,
                "b1": rep.diagnostics.get("b1"),
                "b2": rep.diagnostics.get("b2"),
                "abs_futaki": rep.residual,
                "endpoint_sign_low_b2": float(np.sign(ev["upper"])),  # b2 = -1/7 end
                "endpoint_sign_high_b2": float(np.sign(ev["lower"])),  # b2 = 1/5 end
                "certified": rep.success,
            }
        )
    if cfg.get("plots") and out is not None:
        _write_csv(
            out / "z1_tau_roots.csv",
            ["tau", "b1", "b2", "abs_futaki"],
            [(r["tau"], r["b1"], r["b2"], r["abs_futaki"]) for r in rows],
        )
    return {
        "example": "Z1",
        "admissible_interval_b1": [str(lo), str(hi)],
        "admissible_interval_b2": ["-1/7", "1/5"],
        "roots": rows,
        "all_certified": all(r["certified"] for r in rows),
    }


def _reproduce_z2(cfg, out):
    data = load_dataset("Z2")
    tau0, rep = find_tau0(data)
    hs = h_stats(data)
    lo, _ = path_interval_1d(data)
    fld = normalize_field([-lo], hs, data.dual())
    res = {
        "example": "Z2",
        "tau0": tau0,
        "solver": rep.to_json(),
        "boundary_b1": str(lo),
        "k_at_plus1": str(fld.vertex_values_exact[_vertex_index(data, 1)]),
        "k_at_minus1": str(fld.vertex_values_exact[_vertex_index(data, -1)]),
    }
    if tau0 is not None:
        profile = sigma_mod.tau_mix(tau0)
        gs = g_stats(data, profile, fld)
        verdict = stability_verdict(gs, profile, fld, data, tol=float(cfg["tol"]))
        res["verdict"] = verdict.to_json()
        subsol = None
        try:
            _, C, subrep = build_subsolution(Functionals(data, profile, fld, gstats=gs, hstats=hs))
            subsol = {"C": C, "mode": subrep["mode"]}
        except ValueError as e:
            subsol = {"error": str(e)}
        res["subsolution"] = subsol
    return res


def _vertex_index(data, z) -> int:
    for i, v in enumerate(data.dual().vertices):
        if float(v[0]) == float(z):
            return i
    raise ValueError(f"no dual vertex at {z}")


def _task_reproduce(cfg, out):
    if cfg.get("classical"):
        data = load_ksm(cfg["ksm"])
        return {"classical": reproduce_classical(data)}
    example = cfg.get("example") or (cfg["ksm"] if isinstance(cfg["ksm"], str) else None)
    if example == "Z1":
        return _reproduce_z1(cfg, out)
    if example == "Z2":
        return _reproduce_z2(cfg, out)
    raise ConfigError(f"unknown reproduction target {example!r} (use Z1, Z2, or classical)")


_TASK_FNS = {
    "validate": _task_validate,
    "stability": _task_stability,
    "solve-field": _task_solve_field,
    "solve-metric": _task_solve_metric,
    "geodesic": _task_geodesic,
    "probe": _task_probe,
    "reproduce": _task_reproduce,
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def run(cfg: dict) -> dict:
    """Execute a run configuration and return the deterministic report."""
    cfg = normalize_config(cfg)
    out = Path(cfg["out"]) if "out" in cfg else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results = _TASK_FNS[cfg["task"]](cfg, out)
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "config": cfg,
        "task": cfg["task"],
        "results": results,
    }
    if out is not None:
        (out / "report.json").write_bytes(report_bytes(report))
    return report


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n").encode()


def _write_csv(path: Path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(x)) for x in row) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, help="JSON run configuration file")
    common.add_argument("--ksm", type=str, help=f"dataset name ({', '.join(dataset_names())}) or JSON file path")
    common.add_argument("--sigma", type=str, help='sigma profile JSON, e.g. \'{"kind":"tau_mix","tau":0.5}\'')
    common.add_argument("--c", type=str, help="explicit field coefficients, comma separated")
    common.add_argument("--solve", type=str, help="field solve method: soliton | path | tau0 | general")
    common.add_argument("--tau", type=float, help="tau for --solve path")
    common.add_argument("--tol", type=float, default=1e-8, help="barycenter tolerance for verdicts")
    common.add_argument("--solver-tol", type=float, help="residual tolerance for field solvers")
    common.add_argument("--max-iter", type=int, help="iteration cap for field solvers")
    common.add_argument("--ma-tol", type=float, help="Alexandrov TV tolerance for solve-metric")
    common.add_argument("--out", type=str, help="output directory for report.json and CSVs")
    common.add_argument("--plots", action="store_true", help="write CSV plot data")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized probes")
    common.add_argument("--level", type=int, help="dual grid refinement level")
    common.add_argument("--window", type=float, help="half-width of the 1D primal plot")

    p = argparse.ArgumentParser(
        prog="ksm-stab",
        description="Multiplier Hermitian-Einstein existence criteria on toric-fiber-bundle Fano manifolds",
    )
    p.add_argument("--version", action="version", version=f"ksm-stab {__version__}")
    sub = p.add_subparsers(dest="task", required=True)
    for task in TASKS:
        sp = sub.add_parser(task, parents=[common])
        if task == "reproduce":
            sp.add_argument("--example", type=str, help="Z1 or Z2")
            sp.add_argument("--classical", action="store_true", help="classical KE/soliton criteria")
        if task == "geodesic":
            sp.add_argument("--phi", type=str, help="PL convex phi JSON")
            sp.add_argument("--t-values", type=str, help="comma separated geodesic times")
        if task == "probe":
            sp.add_argument("--samples", type=int, default=12)
            sp.add_argument("--j-kind", type=str, default="red", choices=["red", "sigma"])
    return p


def config_from_args(args: argparse.Namespace) -> dict:
    if args.config:
        with open(args.config) as f:
            cfg = json.load(f)
        cfg.setdefault("task", args.task)
    else:
        cfg = {"task": args.task}
        if args.ksm:
            cfg["ksm"] = args.ksm if not args.ksm.endswith(".json") else {"path": args.ksm}
        if args.sigma:
            cfg["sigma"] = json.loads(args.sigma)
        if args.c:
            cfg["field"] = {"c": [x.strip() for x in args.c.split(",")]}
        elif args.solve:
            spec = {"solve": args.solve}
            if args.tau is not None:
                spec["tau"] = args.tau
            cfg["field"] = spec
    for key in ("tol", "seed"):
        cfg.setdefault(key, getattr(args, key))
    for key in ("out", "level", "window", "solver_tol", "max_iter", "ma_tol"):
        val = getattr(args, key, None)
        if val is not None:
            cfg.setdefault(key, val)
    if args.plots:
        cfg["plots"] = True
    if getattr(args, "example", None):
        cfg["example"] = args.example
    if getattr(args, "classical", False):
        cfg["classical"] = True
    if getattr(args, "phi", None):
        cfg["phi"] = json.loads(args.phi)
    if getattr(args, "t_values", None):
        cfg["t_values"] = [float(t) for t in args.t_values.split(",")]
    if getattr(args, "samples", None) is not None:
        cfg.setdefault("samples", args.samples)
    if getattr(args, "j_kind", None):
        cfg.setdefault("j_kind", args.j_kind)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run(cfg)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(report_bytes(report).decode())
    _warn_unconverged(report)
    return 0


def _warn_unconverged(report: dict) -> None:
    """One stderr line when a Monge-Ampere solve stopped short of its target;
    the report and the exit code are unchanged."""
    metric = report["results"].get("metric") if report["task"] == "solve-metric" else None
    if metric is None or metric["converged"]:
        return
    target = report["config"].get("ma_tol")
    if target is None:
        target = DEFAULT_TOL_TV[metric["mode"]]
    print(
        f"warning: solve-metric did not converge: {metric['iterations']} iterations, "
        f"residual_tv {metric['residual_tv']:.3e} > target {target:.1e}",
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())

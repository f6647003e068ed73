"""ksm-stab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fields-moments --seed 1 --seconds 30 --trace 0

Run from the repository root; ksm_stab is imported from ./src (nothing is
installed).  Every pass over the workload's task list runs in a fresh
interpreter.  With ``--trace 0`` it times as many passes as fit in
``--seconds`` after set-up at the workload's nominal pass time (at least
one), tracing off, and prints the end-to-end metrics.  With ``--trace 1`` it runs one
untraced and one traced pass and prints the per-layer metrics; the spans go
to .bench_out/.  Times of whole passes and of set-up are scaled to
reference-host seconds (pace.py).  See bench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# one thread everywhere, set before numpy is imported (children inherit it)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KSM_STAB_THREADS"):
    os.environ[_var] = "1"

from pace import REF_KERNEL_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "frac",
    "max_rel_err": "1",
    "residual_tv_max": "1",
}


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_frac", "frac"), ("_per_iter", "count/iter")):
        if name.endswith(suffix):
            return unit
    return "count"


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _import_package():
    src = ROOT / "src"
    if not (src / "ksm_stab" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(src), str(HERE)]
    import ksm_stab

    if Path(ksm_stab.__file__).resolve().parent != (src / "ksm_stab").resolve():
        return None
    return ksm_stab


def _setup_seconds(workload: str, seed: int) -> tuple[float, list[float]]:
    """Fresh interpreter: import plus this workload's input construction.
    One untimed warm-up (bytecode caches), then the median of repeats in
    reference-host seconds (pace.py); the raw times are returned too."""
    from tasks import run_child

    times, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        out = run_child(["setup", workload, str(seed)])
        dt = time.perf_counter() - t0
        if "error" in out:
            raise RuntimeError(f"setup child failed: {out['error']}")
        if i:
            times.append(scaled(dt, out["pace"]))
            raw.append(dt)
    return statistics.median(times), raw


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "threads": 1,
    }


def _pass(workload: str, seed: int, trace_path: Path | None) -> dict:
    """One pass in a fresh interpreter (see child.py for why)."""
    from tasks import run_child

    args = ["pass", workload, str(seed), "0" if trace_path is None else "1", str(trace_path)]
    out = run_child(args, timeout=170.0)
    if "error" in out:
        raise RuntimeError(f"pass child failed: {out['error']}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ksm-stab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if _import_package() is None:
        return _fail("ksm_stab not found under ./src; run from the repository root")
    from tasks import NOMINAL_PASS_S, NOMINAL_SETUP_S

    if args.workload not in NOMINAL_PASS_S:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(NOMINAL_PASS_S)}")

    trace_file = None
    if args.trace == 0:
        setup_s, setup_raw = _setup_seconds(args.workload, args.seed)
        n_passes = max(1, int((args.seconds - NOMINAL_SETUP_S) // NOMINAL_PASS_S[args.workload]))
        passes = [_pass(args.workload, args.seed, None) for _ in range(n_passes)]
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        passes = [_pass(args.workload, args.seed, None), _pass(args.workload, args.seed, trace_file)]

    attempted = sum(p["summary"]["attempted"] for p in passes)
    failed = sum(p["summary"]["failed"] for p in passes)
    digests = [[t["digest"] for t in p["tasks"]] for p in passes]
    deterministic = all(d == digests[0] for d in digests)
    unexpected = [
        f"{t['name']}: {t['error'] or t['failed_checks']}"
        for p in passes for t in p["tasks"] if t["unexpected"]
    ]
    walls = [p["raw_wall_s"] for p in passes]
    scaled_walls = [scaled(p["raw_wall_s"], p["pace"]) for p in passes]
    detail = {
        "workload": args.workload,
        "environment": _environment(args.seed),
        "passes": len(passes),
        "pass_raw_wall_s": walls,
        "pass_kernel_s": [p["pace"]["kernel_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "tasks": [
            {k: t[k] for k in ("name", "seconds", "failed", "known_failure", "error", "max_err")}
            for t in passes[0]["tasks"]
        ],
        "unexpected_failures": unexpected,
        "deterministic": deterministic,
    }

    if args.trace == 0:
        detail["setup_raw_s"] = setup_raw
        metrics = {
            "wall_s": statistics.median(scaled_walls),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "failed_frac": failed / attempted,
            "max_rel_err": max(p["summary"]["max_rel_err"] for p in passes),
            "residual_tv_max": max(p["summary"]["residual_tv_max"] for p in passes),
        }
        out_metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    else:
        # self times in reference-host seconds, like the pass times
        speed = REF_KERNEL_S / passes[1]["pace"]["kernel_s"]
        layers = {k: v * speed if k.endswith("_s") else v for k, v in passes[1]["layers"].items()}
        layers["trace.wall_s"] = scaled_walls[1]
        layers["trace.overhead_s"] = scaled_walls[1] - scaled_walls[0]
        layers["trace.spans"] = passes[1]["spans"]
        out_metrics = {k: _metric(v, _layer_unit(k)) for k, v in layers.items()}
        detail["trace_file"] = str(trace_file.relative_to(ROOT))

    print(json.dumps(detail))
    print(json.dumps({
        "correct": not unexpected and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

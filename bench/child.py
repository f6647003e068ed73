"""Child processes of the benchmark, each in a fresh interpreter.

    python3 bench/child.py setup WORKLOAD SEED        # import + inputs only
    python3 bench/child.py pass WORKLOAD SEED TRACE   # one timed pass
    python3 bench/child.py capped                     # the capped 2D task

Each prints one JSON line.  The set-up and every pass run under a ``Pace``
sampler (pace.py), whose summary lets the parent scale their times to
reference-host seconds.  A pass runs in its own process so that every
pass starts as cold as a CLI invocation: ``dual_polytope`` is memoized per
Fano polytope and each dual keeps its quadrature nodes, and a second pass in
the same process would skip that work and inherit the first pass's heap.
The parent sets the thread pins and, for ``capped``, the address-space cap.
"""

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pace import Pace  # noqa: E402  (stdlib only: set-up timing starts here)


def one_pass(workload: str, seed: int, trace_path: str | None) -> dict:
    from harness import run_pass, summarize
    from tasks import TASKS, build_inputs
    from tracer import Tracer

    tasks = TASKS[workload](build_inputs(workload, seed))  # untimed
    tracer = None
    with Pace() as pace:
        if trace_path is None:
            wall, results = run_pass(tasks)
        else:
            tracer = Tracer()
            with tracer.installed():
                wall, results = run_pass(tasks)
    out = {
        "raw_wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": summarize(results),
        "tasks": [
            {
                "name": r.name,
                "seconds": r.seconds,
                "failed": r.failed,
                "unexpected": r.unexpected,
                "known_failure": r.known_failure.reason if r.known_failure else None,
                "error": r.error,
                "failed_checks": r.failed_checks,
                "max_err": max((c[1] for c in r.record.checks if c[1] is not None), default=None),
                "digest": r.digest(),
            }
            for r in results
        ],
        "pace": pace.summary(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = len(tracer.spans)
        tracer.dump(trace_path)
    return out


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        with Pace(interval=0.02) as pace:
            from tasks import build_inputs  # imports ksm_stab, numpy and scipy

            build_inputs(argv[1], int(argv[2]))
        out = {"pace": pace.summary()}
    elif mode == "pass":
        out = one_pass(argv[1], int(argv[2]), argv[4] if argv[3] == "1" else None)
    elif mode == "capped":
        from tasks import capped_gstats_p2

        try:
            out = capped_gstats_p2()
        except Exception as exc:  # the parent decides which types are expected
            out = {"error_type": type(exc).__name__, "error": str(exc)[:200]}
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Task bookkeeping shared by the workloads: checks against references,
failure accounting and the end-to-end summary of a run."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def rel_err(got, ref) -> float:
    """Sup-norm deviation relative to the sup norm of the reference (absolute
    when the reference is exactly zero)."""
    g = np.atleast_1d(np.asarray(got, dtype=float))
    r = np.atleast_1d(np.asarray(ref, dtype=float))
    diff = float(np.max(np.abs(g - r)))
    scale = float(np.max(np.abs(r)))
    return diff / scale if scale > 0 else diff


@dataclass
class Record:
    """What one task execution produced: checks, MA residuals and the outputs
    compared between passes (and between traced and untraced runs)."""

    checks: list = field(default_factory=list)  # (label, err or None, tol, ok)
    tv: list = field(default_factory=list)  # final Alexandrov TV per MA solve
    output: dict = field(default_factory=dict)

    def close(self, label: str, got, ref, tol: float) -> None:
        """Relative deviation from a reference, within ``tol``."""
        err = rel_err(got, ref)
        self.checks.append((label, err, tol, bool(err <= tol)))
        self.output[label] = _plain(got)

    def require(self, label: str, ok) -> None:
        self.checks.append((label, None, None, bool(ok)))

    def solve(self, label: str, converged: bool, tv: float) -> None:
        """An MA solve: it must converge; its final TV is always reported."""
        self.tv.append(float(tv))
        self.require(f"{label} converged", converged)
        self.output[f"{label} tv"] = float(tv)


@dataclass(frozen=True)
class KnownFailure:
    """How a task fails at this commit: the labels of the checks that are
    red, or the type of the exception it raises.  Any other failed check or
    exception type in the task is unexpected."""

    reason: str
    checks: tuple[str, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class Task:
    name: str
    fn: Callable[[Record], None]
    known_failure: KnownFailure | None = None


@dataclass
class Result:
    name: str
    seconds: float
    record: Record
    error: str | None
    known_failure: KnownFailure | None

    @property
    def error_type(self) -> str | None:
        return self.error.split(":")[0] if self.error else None

    @property
    def failed_checks(self) -> list[str]:
        return [c[0] for c in self.record.checks if not c[3]]

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failed_checks)

    @property
    def unexpected(self) -> bool:
        known = self.known_failure or KnownFailure("")
        if self.error is not None and self.error_type != known.error:
            return True
        return any(label not in known.checks for label in self.failed_checks)

    def digest(self) -> str:
        """Outputs compared between passes.  Only an error's type takes part:
        where an allocation fails under an address-space cap can vary."""
        return json.dumps({"error": self.error_type, "output": self.record.output}, sort_keys=True)


def _plain(x):
    if isinstance(x, (list, tuple, np.ndarray)):
        return [float(v) for v in np.ravel(x)]
    return float(x)


def run_task(task: Task) -> Result:
    """Run one task; an exception is recorded as a failure, never raised."""
    rec = Record()
    t0 = time.perf_counter()
    try:
        task.fn(rec)
        error = None
    except Exception as exc:  # a raising task is a counted failure
        error = f"{type(exc).__name__}: {exc}"[:300]
    return Result(task.name, time.perf_counter() - t0, rec, error, task.known_failure)


def run_pass(tasks) -> tuple[float, list[Result]]:
    t0 = time.perf_counter()
    results = [run_task(t) for t in tasks]
    return time.perf_counter() - t0, results


def summarize(results: list[Result]) -> dict:
    """failed_frac, max_rel_err and residual_tv_max over task executions.

    max_rel_err covers every check except those a known failure names as
    red: their deviation (c09's is about 0.16) is already counted in
    failed_frac and would otherwise mask every other error.  residual_tv_max
    covers every MA solve, failed ones included, so a non-converging solve
    shows in it."""
    attempted = len(results)
    failed = sum(r.failed for r in results)
    errs = [
        c[1]
        for r in results
        for c in r.record.checks
        if c[1] is not None and not (r.known_failure and c[0] in r.known_failure.checks)
    ]
    tvs = [tv for r in results for tv in r.record.tv]
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "max_rel_err": max(errs) if errs else 0.0,
        "residual_tv_max": max(tvs) if tvs else 0.0,
    }

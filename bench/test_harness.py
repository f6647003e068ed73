"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_harness.py

Checks the self-time arithmetic of the tracer on a synthetic call tree, that
a raising task and an unconverged task are both counted in failed_frac, and
that a known failure excuses only the check or exception type it names, and
the host-speed scaling of pace.py.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest

import pace
from harness import KnownFailure, Task, run_pass, summarize
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_nested_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    clock = FakeClock()
    tr = Tracer(clock=clock)
    with tr.span("root"):
        clock.advance(1)
        with tr.span("a"):
            clock.advance(1)
            with tr.span("c"):
                clock.advance(1)
            clock.advance(1)
        clock.advance(1)
        with tr.span("b"):
            clock.advance(4)
        clock.advance(1)
    names = [sp[0] for sp in tr.spans]
    selfs = dict(zip(names, tr.self_times()))
    assert selfs == {"root": 10 - 3 - 4, "a": 3 - 1, "c": 1, "b": 4}
    assert [sp[3] for sp in tr.spans] == [-1, 0, 1, 0]  # parent links


def test_wrapped_calls_nest_and_restore():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.advance(2)
        return 1

    wrapped_leaf = tr.wrap("leaf", leaf)

    def outer():
        clock.advance(1)
        return wrapped_leaf() + wrapped_leaf()

    assert tr.wrap("outer", outer)() == 2
    assert tr.self_times() == [1, 2, 2]

    class Holder:
        def method(self):
            return 3

    tr.patch_method(Holder, "method", "holder.method")
    assert Holder().method() == 3 and tr.spans[-1][0] == "holder.method"
    tr.restore()
    assert Holder.__dict__["method"].__name__ == "method"
    assert not hasattr(Holder.__dict__["method"], "__wrapped__")


def test_patch_everywhere_covers_every_binding():
    import types

    def f():
        return 0

    mods = [types.ModuleType("m1"), types.ModuleType("m2"), types.ModuleType("m3")]
    mods[0].f = f
    mods[1].g = f  # bound under another name
    tr = Tracer()
    assert tr.patch_everywhere(mods, f, tr.wrap("f", f)) == 2
    mods[0].f(), mods[1].g()
    assert len(tr.spans) == 2
    tr.restore()
    assert mods[0].f is f and mods[1].g is f


def test_raising_and_unconverged_tasks_count_as_failed():
    def ok(rec):
        rec.close("value", 1.0 + 1e-12, 1.0, 1e-9)

    def raises(rec):
        raise MemoryError("out of address space")

    def unconverged(rec):
        rec.solve("solve", converged=False, tv=2.6e-3)

    tasks = [
        Task("ok", ok),
        Task("raises", raises, known_failure=KnownFailure("synthetic", error="MemoryError")),
        Task("unconverged", unconverged),
    ]
    _, results = run_pass(tasks)
    s = summarize(results)
    assert s["attempted"] == 3 and s["failed"] == 2
    assert s["failed_frac"] == pytest.approx(2 / 3)
    assert results[1].error.startswith("MemoryError")
    # the unconverged solve still reports its residual
    assert s["residual_tv_max"] == pytest.approx(2.6e-3)
    assert s["max_rel_err"] == pytest.approx(1e-12)
    assert [r.unexpected for r in results] == [False, False, True]


def test_known_failure_covers_only_its_own_check_or_error():
    def red(rec, other_err=0.0):
        rec.close("known", 0.5, 1.0, 1e-3)  # the known red check
        rec.close("other", 1.0 + other_err, 1.0, 1e-3)

    known = KnownFailure("synthetic", checks=("known",))
    _, results = run_pass([
        Task("as-known", red, known_failure=known),
        Task("other-red", lambda rec: red(rec, other_err=1e-2), known_failure=known),
        Task("other-error", lambda rec: 1 / 0, known_failure=known),
        Task("wrong-type", lambda rec: 1 / 0, known_failure=KnownFailure("x", error="MemoryError")),
    ])
    assert [r.failed for r in results] == [True] * 4
    assert [r.unexpected for r in results] == [False, True, True, True]
    # the passing and unexpected checks of a known-failure task feed
    # max_rel_err, the known red check does not
    assert summarize(results[:1])["max_rel_err"] == 0.0
    assert summarize(results[:2])["max_rel_err"] == pytest.approx(1e-2)


def test_pace_scaling_and_sampling():
    # kernel at twice the reference time: the host ran at half speed
    ref = pace.REF_KERNEL_S
    summary = {"spent_s": 0.2, "kernel_s": 2 * ref}
    assert pace.scaled(10.2, summary) == pytest.approx(5.0)
    # a long gap (a C call) counts with the samples at both of its ends
    assert pace.time_average([1.0, 1.0, 3.0], [1.0, 1.0, 2.0]) == pytest.approx(1.5)
    with pace.Pace(interval=0.01) as p:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    s = p.summary()
    assert len(p.samples) >= 5 and 0 < s["spent_s"] < 0.2 and s["kernel_s"] > 0

import json

import pytest

from ksm_stab.cli import (
    ConfigError,
    main,
    normalize_config,
    report_bytes,
    run,
)


def read_report(path):
    return json.loads((path / "report.json").read_text())


class TestRun:
    def test_validate_dataset(self, tmp_path):
        rep = run({"task": "validate", "ksm": "Z1", "out": str(tmp_path)})
        assert rep["results"]["valid"]
        assert rep["results"]["positivity_margins"] == ["1/2"]
        assert (tmp_path / "report.json").exists()

    def test_validate_inline_invalid(self):
        cfg = {
            "task": "validate",
            "ksm": {"n": 0, "l": 2, "mu": [], "polytope": {"vertices": [[2, 0], [0, 1], [-1, -1]]}},
        }
        rep = run(cfg)
        assert not rep["results"]["valid"]
        assert rep["results"]["fano_violations"]

    def test_stability_unstable_exit_zero(self, capsys):
        code = main(["stability", "--ksm", "Z1", "--sigma", '{"kind":"constant"}', "--c", "0"])
        assert code == 0  # a negative verdict is still a successful computation
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["verdict"]["status"] == "unstable"

    def test_solve_field_path(self):
        rep = run({"task": "solve-field", "ksm": "Z1", "field": {"solve": "path", "tau": 0.5}})
        assert rep["results"]["solver"]["success"]

    def test_reproduce_classical(self):
        rep = run({"task": "reproduce", "ksm": "Z2", "classical": True})
        res = rep["results"]["classical"]
        assert not res["ke_criterion_satisfied"]
        assert res["ke_defect_exact"] == ["8/9"]
        assert res["soliton_exists"]

    def test_product_classical_ke_holds(self):
        rep = run({"task": "reproduce", "ksm": "product", "classical": True})
        assert rep["results"]["classical"]["ke_criterion_satisfied"]

    def test_bad_config_raises(self):
        with pytest.raises(ConfigError):
            normalize_config({"task": "unknown"})
        with pytest.raises(ConfigError):
            normalize_config({"task": "stability"})

    def test_cli_error_exit_code(self, capsys):
        assert main(["stability", "--ksm", "no-such-dataset"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unconverged_solve_warns_on_stderr(self, capsys):
        base = ["solve-metric", "--ksm", "p1-fiber", "--c", "0", "--level", "3"]
        assert main(base) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"]["metric"]["converged"]
        assert captured.err == ""
        # a target below double precision cannot be met: same exit code and
        # report, plus one stderr line naming iterations, residual and target
        assert main(base + ["--ma-tol", "1e-17"]) == 0
        captured = capsys.readouterr()
        metric = json.loads(captured.out)["results"]["metric"]
        assert not metric["converged"]
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0] == (
            f"warning: solve-metric did not converge: {metric['iterations']} iterations, "
            f"residual_tv {metric['residual_tv']:.3e} > target 1.0e-17"
        )


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = {
            "task": "stability",
            "ksm": "Z1",
            "sigma": {"kind": "tau_mix", "tau": 0.5},
            "field": {"solve": "path", "tau": 0.5},
        }
        b1 = report_bytes(run(dict(cfg)))
        b2 = report_bytes(run(dict(cfg)))
        assert b1 == b2

    def test_probe_seeded(self):
        cfg = {
            "task": "probe",
            "ksm": "p1-fiber",
            "sigma": {"kind": "constant"},
            "field": {"c": [0]},
            "samples": 5,
            "seed": 42,
        }
        r1 = run(dict(cfg))
        r2 = run(dict(cfg))
        assert report_bytes(r1) == report_bytes(r2)

    def test_round_trip_config(self):
        cfg = {
            "task": "stability",
            "ksm": "Z2",
            "sigma": {"kind": "mabuchi_log", "shift": 1.0},
            "field": {"c": ["31/19"]},
        }
        rep = run(cfg)
        again = run(rep["config"])
        assert report_bytes(rep) == report_bytes(again)


class TestGeodesicAndPlots:
    def test_geodesic_report(self, tmp_path):
        cfg = {
            "task": "geodesic",
            "ksm": "p1-fiber",
            "sigma": {"kind": "constant"},
            "field": {"c": [0]},
            "phi": {"pieces": [[["1"], "0"], [["-1"], "0"]], "R": "1"},
            "t_values": [0.0, 4.0],
            "plots": True,
            "out": str(tmp_path),
        }
        rep = run(cfg)
        assert rep["results"]["ding_invariant"] == pytest.approx(0.5, abs=1e-12)
        assert (tmp_path / "geodesic.csv").exists()
        header = (tmp_path / "geodesic.csv").read_text().splitlines()[0]
        assert header == "t,ding,chord_slope"

    def test_solve_metric_plots(self, tmp_path):
        cfg = {
            "task": "solve-metric",
            "ksm": "p1-fiber",
            "sigma": {"kind": "constant"},
            "field": {"c": [0]},
            "plots": True,
            "out": str(tmp_path),
        }
        rep = run(cfg)
        assert rep["results"]["metric"]["converged"]
        assert (tmp_path / "dual_potential.csv").exists()
        assert (tmp_path / "primal_potential.csv").exists()


def test_reproduce_z1_table(tmp_path):
    rep = run({"task": "reproduce", "example": "Z1", "plots": True, "out": str(tmp_path)})
    res = rep["results"]
    assert res["all_certified"]
    taus = [r["tau"] for r in res["roots"]]
    assert taus == [0.0, 0.25, 0.5, 0.75, 1.0]
    for r in res["roots"]:
        assert -1 / 7 < r["b2"] < 1 / 5
        assert r["endpoint_sign_low_b2"] > 0   # I > 0 at b2 = -1/7
        assert r["endpoint_sign_high_b2"] < 0  # I < 0 at b2 = 1/5
        assert r["abs_futaki"] <= 1e-11
    assert (tmp_path / "z1_tau_roots.csv").exists()


def test_ksm_from_file(tmp_path):
    import ksm_stab

    data = ksm_stab.load_dataset("Z2")
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(data.to_json()))
    rep = run({"task": "validate", "ksm": {"path": str(path)}})
    assert rep["results"]["valid"]
    assert rep["results"]["n_dual_vertices"] == 2

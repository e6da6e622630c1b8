"""End-to-end command-line tests.

The exit-code contract is frozen here: 0 for success, 1 for usage or
configuration problems, 2 for physics failures (gapless family on the
requested grid, topological obstruction). Structured output is JSON with
a schema stamp; bulk tables land in CSV files.
"""

import csv
import json

import numpy as np
import pytest

from blochtopo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if code == 0 and captured.out.strip() else None
    return code, doc, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, doc, _ = run(capsys, "z2", "--model", "kane_mele", "--grid", "12")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["command"] == "z2"
        assert "generated_at" in doc

    def test_unknown_flag_is_usage(self, capsys):
        code, _, err = run(capsys, "z2", "--model", "kane_mele", "--bogus", "1")
        assert code == 1
        assert "error" in err

    def test_unknown_model_is_usage(self, capsys):
        code, _, err = run(capsys, "z2", "--model", "nonesuch", "--grid", "12")
        assert code == 1
        assert "nonesuch" in err

    def test_missing_grid_is_usage(self, capsys):
        code, _, err = run(capsys, "z2", "--model", "kane_mele")
        assert code == 1
        assert "grid" in err

    def test_bad_params_is_usage(self, capsys):
        code, _, err = run(
            capsys, "z2", "--model", "kane_mele", "--grid", "12", "--params", "lv=abc"
        )
        assert code == 1
        assert "params" in err

    def test_odd_grid_is_usage(self, capsys):
        code, _, err = run(capsys, "z2", "--model", "kane_mele", "--grid", "13")
        assert code == 1

    def test_threads_option_is_gone(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gap", "--model", "ssh", "--grid", "16", "--threads", "2")
        assert code == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ssh", "grid": "16", "threads": 2}))
        code, _, err = run(capsys, "gap", "--config", str(cfg))
        assert code == 1
        assert "threads" in err

    def test_gapless_family_is_physics(self, capsys):
        code, _, err = run(
            capsys, "chern", "--model", "ssh", "--params", "tp=1.0", "--grid", "16"
        )
        assert code == 2
        assert "physics error" in err

    def test_obstruction_is_physics(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "wannier", "--model", "haldane", "--grid", "12",
            "--output", str(tmp_path / "w.csv"),
        )
        assert code == 2
        assert "physics error" in err

    def test_wannier_gapless_is_physics(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "wannier", "--model", "ssh", "--params", "tp=1.0", "--grid", "32",
            "--output", str(tmp_path / "w.csv"),
        )
        assert code == 2
        assert not (tmp_path / "w.csv").exists()


class TestDeterminism:
    def test_identical_up_to_timestamp(self, capsys):
        argv = ("z2", "--model", "bhz", "--params", "M=-0.5", "--grid", "12")
        _, doc1, _ = run(capsys, *argv)
        _, doc2, _ = run(capsys, *argv)
        doc1.pop("generated_at")
        doc2.pop("generated_at")
        assert doc1 == doc2


class TestConfigFile:
    def test_config_supplies_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "kane_mele", "grid": "12", "params": "lv=0.1"}))
        code, doc, _ = run(capsys, "z2", "--config", str(cfg))
        assert code == 0
        assert doc["delta"] == 1

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "kane_mele", "grid": "24"}))
        code, doc, _ = run(capsys, "z2", "--config", str(cfg), "--grid", "12")
        assert code == 0
        assert doc["grid"] == [12, 12]

    def test_unknown_config_field_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "kane_mele", "gridsize": "12"}))
        code, _, err = run(capsys, "z2", "--config", str(cfg), "--grid", "12")
        assert code == 1
        assert "gridsize" in err

    def test_malformed_config_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        code, _, err = run(capsys, "z2", "--config", str(cfg), "--grid", "12")
        assert code == 1

    @pytest.mark.parametrize("grid", [16, [16, 16]], ids=["int", "list"])
    def test_non_string_config_grid_is_usage(self, capsys, tmp_path, grid):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "haldane", "grid": grid}))
        code, _, err = run(capsys, "gap", "--config", str(cfg))
        assert code == 1
        assert "error: grid:" in err


class TestBands:
    def test_path_csv(self, capsys, tmp_path):
        out = tmp_path / "bands.csv"
        code, doc, _ = run(
            capsys,
            "bands", "--model", "ssh", "--output", str(out),
            "--path=-0.5;0.0;0.5", "--path-steps", "10",
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "k1", "e1", "e2"]
        assert len(rows) == 1 + 21
        assert doc["rows"] == 21
        # spectrum symmetric at the zone edge sample
        first = rows[1]
        assert float(first[2]) == pytest.approx(-float(first[3]), abs=1e-9)

    def test_requires_output(self, capsys):
        code, _, err = run(capsys, "bands", "--model", "ssh")
        assert code == 1
        assert "output" in err


class TestGap:
    def test_gapless_point_located(self, capsys):
        code, doc, _ = run(
            capsys, "gap", "--model", "ssh", "--params", "tp=1.0", "--grid", "64"
        )
        assert code == 0
        assert doc["gapless"] is True
        assert abs(abs(doc["argmin"][0]) - 0.5) < 1e-9

    def test_gapped_report(self, capsys):
        code, doc, _ = run(capsys, "gap", "--model", "kane_mele", "--grid", "12")
        assert code == 0
        assert doc["gapless"] is False
        assert doc["min_gap"] > 0.1
        assert doc["rank_constant"] is True


class TestChern:
    def test_haldane_with_curvature_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "omega.csv"
        code, doc, _ = run(
            capsys,
            "chern", "--model", "haldane", "--grid", "16",
            "--curvature-csv", str(csv_path),
        )
        assert code == 0
        assert doc["agree"] is True
        assert abs(doc["plaquette_method"]["value"]) == 1
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k1", "k2", "omega"]
        assert len(rows) == 1 + 16 * 16
        total = sum(float(r[2]) for r in rows[1:]) / (16 * 16 * 2 * np.pi)
        assert round(total) == doc["plaquette_method"]["value"]

    def test_methods_agree_across_masses(self, capsys):
        for mass, want in (("0.0", 1), ("1.2", 0)):
            code, doc, _ = run(
                capsys,
                "chern", "--model", "haldane", "--params", f"M={mass}", "--grid", "16",
            )
            assert code == 0
            assert abs(doc["plaquette_method"]["value"]) == want
            assert doc["agree"] is True


class TestZ2:
    def test_flow_csv(self, capsys, tmp_path):
        flow_path = tmp_path / "flow.csv"
        code, doc, _ = run(
            capsys,
            "z2", "--model", "kane_mele", "--grid", "12",
            "--flow-csv", str(flow_path),
        )
        assert code == 0
        assert doc["agree"] is True
        assert doc["delta"] == 1
        with open(flow_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "k2"
        assert all(name.startswith("phase") for name in rows[0][1:])
        # the flow covers the half axis 0 .. 1/2 inclusive
        assert len(rows) >= 1 + 7
        assert float(rows[1][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(0.5)

    def test_three_dimensional_indices(self, capsys):
        code, doc, _ = run(
            capsys, "z2-3d", "--model", "wilson_dirac_3d", "--params", "m=-2.0",
            "--grid", "8",
        )
        assert code == 0
        assert doc["indices"]["delta_1_0"] == 1
        assert doc["strong"] == 1
        assert doc["consistent"] is True


class TestWannier:
    def test_report_file_and_csv(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "wannier", "--model", "ssh", "--grid", "32",
            "--output", str(out), "--report", str(report),
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["decay"]["exponential"] is True
        assert doc["localization"]["spread"] < 0.1
        assert out.exists()

    def test_stdout_report_by_default(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        code, doc, _ = run(
            capsys, "wannier", "--model", "ssh", "--grid", "32", "--output", str(out)
        )
        assert code == 0
        assert doc["norm_defect"] < 1e-12


class TestSweep:
    def test_z2_sweep_brackets_the_transition(self, capsys):
        code, doc, _ = run(
            capsys,
            "sweep", "--model", "kane_mele", "--vary", "lv",
            "--from", "0.2", "--to", "0.4", "--steps", "5", "--grid", "12",
        )
        assert code == 0
        assert doc["invariant_kind"] == "z2"
        assert len(doc["transitions"]) == 1
        assert doc["transitions"][0] == pytest.approx([0.3, 0.35])

    def test_chern_sweep_auto_kind(self, capsys):
        code, doc, _ = run(
            capsys,
            "sweep", "--model", "haldane", "--vary", "M",
            "--from", "0.9", "--to", "1.2", "--steps", "4", "--grid", "16",
        )
        assert code == 0
        assert doc["invariant_kind"] == "chern"
        assert len(doc["transitions"]) == 1
        assert doc["transitions"][0] == pytest.approx([1.0, 1.1])
        values = [p["invariant"] for p in doc["points"]]
        assert values == [1, 1, 0, 0]

    def test_invariant_none(self, capsys):
        code, doc, _ = run(
            capsys,
            "sweep", "--model", "ssh", "--vary", "tp",
            "--from", "0.5", "--to", "1.5", "--steps", "3", "--grid", "32",
            "--invariant", "none",
        )
        assert code == 0
        assert doc["invariant_kind"] == "none"
        gapless = [p["gapless"] for p in doc["points"]]
        assert gapless == [False, True, False]

    def test_unknown_vary_is_usage(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--model", "kane_mele", "--vary", "zz",
            "--from", "0", "--to", "1", "--steps", "3", "--grid", "12",
        )
        assert code == 1
        assert "zz" in err

    def test_too_few_steps_is_usage(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--model", "kane_mele", "--vary", "lv",
            "--from", "0", "--to", "1", "--steps", "1", "--grid", "12",
        )
        assert code == 1

    def test_grid_rank_mismatch_is_usage(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--model", "kane_mele", "--vary", "lv",
            "--from", "0", "--to", "0.6", "--steps", "3", "--grid", "16,16,16",
        )
        assert code == 1
        assert "error: grid:" in err


class TestAudit:
    def test_fermionic_model_verdicts(self, capsys):
        code, doc, _ = run(capsys, "audit", "--model", "kane_mele", "--grid", "8")
        assert code == 0
        verdicts = doc["projector_audit"]["verdicts"]
        assert verdicts["time_reversal"] is True
        assert verdicts["kramers_pairing"] is True
        assert doc["model_audit"]["verdicts"]["time_reversal"] is True
        assert doc["projector_audit"]["even_rank_violation"] is False

    def test_bosonic_model_skips_kramers(self, capsys):
        code, doc, _ = run(
            capsys, "audit", "--model", "haldane", "--params", "phi=0.0", "--grid", "8"
        )
        assert code == 0
        verdicts = doc["projector_audit"]["verdicts"]
        assert verdicts["time_reversal"] is True
        assert verdicts["kramers_pairing"] is None

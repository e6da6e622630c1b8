"""End-to-end command-line tests.

The exit-code contract is frozen here: 0 for success, 1 for usage or
configuration problems, 2 for physics failures (gapless family on the
requested grid, topological obstruction). Structured output is JSON with
a schema stamp; bulk tables land in CSV files.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blochtopo
from blochtopo.cli import _parse_args, build_parser, main
from blochtopo.models import build_builtin, save_model
from blochtopo.projectors import ProjectorFamily


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


# The option table, written out by hand so that a change to the parser shows
# here: dest -> (flag, a value the flag accepts, that value once parsed).
# Config files name options by dest.
OPTIONS = {
    "model": ("--model", "ssh", "ssh"),
    "params": ("--params", "t=1.0", "t=1.0"),
    "model_file": ("--model-file", "model.json", "model.json"),
    "grid": ("--grid", "16", "16"),
    "bands": ("--bands", "lowest:1", "lowest:1"),
    "tolerance": ("--tolerance", "0.5", 0.5),
    "output": ("--output", "out.csv", "out.csv"),
    "path": ("--path", "0;0.5", "0;0.5"),
    "path_steps": ("--path-steps", "3", 3),
    "curvature_csv": ("--curvature-csv", "omega.csv", "omega.csv"),
    "flow_csv": ("--flow-csv", "flow.csv", "flow.csv"),
    "report": ("--report", "report.json", "report.json"),
    "vary": ("--vary", "t", "t"),
    "start": ("--from", "0.5", 0.5),
    "stop": ("--to", "0.5", 0.5),
    "steps": ("--steps", "3", 3),
    "invariant": ("--invariant", "none", "none"),
}
MODEL = {"model", "params", "model_file"}
FAMILY = MODEL | {"grid", "bands"}
COMMAND_OPTIONS = {
    "bands": MODEL | {"output", "path", "path_steps"},
    "audit": FAMILY | {"tolerance"},
    "gap": FAMILY | {"tolerance"},
    "chern": FAMILY | {"curvature_csv"},
    "z2": FAMILY | {"flow_csv"},
    "z2-3d": FAMILY,
    "wannier": FAMILY | {"output", "report"},
    "sweep": {"model", "params", "grid", "bands", "vary", "start", "stop", "steps", "invariant"},
}


class TestOptionTable:
    """Each subcommand accepts exactly its options, as flags and as config keys.

    Accepted options are only parsed, never run.
    """

    @pytest.mark.parametrize(
        "command,dest",
        [(c, d) for c in COMMAND_OPTIONS for d in OPTIONS],
        ids=[f"{c}-{d}" for c in COMMAND_OPTIONS for d in OPTIONS],
    )
    def test_option_table(self, capsys, tmp_path, command, dest):
        flag, text, parsed = OPTIONS[dest]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dest: parsed}))
        if dest in COMMAND_OPTIONS[command]:
            assert getattr(build_parser().parse_args([command, flag, text]), dest) == parsed
            assert getattr(_parse_args([command, "--config", str(cfg)]), dest) == parsed
        else:
            code, _, err = run(capsys, command, flag, text)
            assert code == 1
            assert f"error: unrecognized arguments: {flag} {text}" in err
            code, _, err = run(capsys, command, "--config", str(cfg))
            assert code == 1
            assert f"error: config: unknown field '{dest}'" in err

    def test_abbreviated_flag_is_usage(self, capsys):
        code, _, err = run(capsys, "gap", "--model", "ssh", "--grid", "16", "--tol", "0.5")
        assert code == 1
        assert "error: unrecognized arguments: --tol 0.5" in err

    @pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
    def test_no_other_flags(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = {w.strip("[],") for w in capsys.readouterr().out.split() if w.startswith("[--")}
        want = {OPTIONS[d][0] for d in COMMAND_OPTIONS[command]}
        assert listed == want | {"--config"}


class TestOptionValues:
    def test_path_steps_zero_is_usage(self, capsys, tmp_path):
        out = tmp_path / "bands.csv"
        code, _, err = run(
            capsys, "bands", "--model", "ssh", "--output", str(out), "--path-steps", "0"
        )
        assert code == 1
        assert "error: path_steps:" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["audit", "gap"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_non_positive_tolerance_is_usage(self, capsys, command, value):
        code, _, err = run(
            capsys, command, "--model", "ssh", "--grid", "16", f"--tolerance={value}"
        )
        assert code == 1
        assert "error: tolerance:" in err

    def test_non_numeric_config_tolerance_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "ssh", "grid": "16", "tolerance": "abc"}))
        code, _, err = run(capsys, "audit", "--config", str(cfg))
        assert code == 1
        assert "error: tolerance:" in err


class TestParamValues:
    @pytest.mark.parametrize("command", ["gap", "chern"])
    def test_nan_param_is_usage(self, capsys, command):
        code, _, err = run(
            capsys, command, "--model", "haldane", "--grid", "16", "--params", "M=nan"
        )
        assert code == 1
        assert "error: params:" in err

    def test_inf_param_is_usage(self, capsys):
        code, _, err = run(
            capsys, "chern", "--model", "haldane", "--grid", "16", "--params", "t1=inf"
        )
        assert code == 1
        assert "error: params:" in err

    @pytest.mark.parametrize("value", ["abc", float("nan"), True], ids=["string", "nan", "bool"])
    def test_bad_config_param_is_usage(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "haldane", "grid": "16", "params": {"M": value}}))
        code, _, err = run(capsys, "gap", "--config", str(cfg))
        assert code == 1
        assert "error: params:" in err

    def test_non_object_config_params_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "haldane", "grid": "16", "params": [1.0]}))
        code, _, err = run(capsys, "gap", "--config", str(cfg))
        assert code == 1
        assert "error: params:" in err

    def test_config_param_object_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "haldane", "grid": "16", "params": {"M": 1, "t2": 0.2}}))
        code, doc, _ = run(capsys, "gap", "--config", str(cfg))
        assert code == 0
        assert doc["model"]["params"]["M"] == 1.0


class TestBandValues:
    @pytest.mark.parametrize("command", ["gap", "chern"])
    @pytest.mark.parametrize("bands", ["lowest:5", "window:1,3"])
    def test_window_past_the_bands_is_usage(self, capsys, command, bands):
        code, _, err = run(
            capsys, command, "--model", "haldane", "--grid", "16", "--bands", bands
        )
        assert code == 1
        assert "error: bands:" in err

    def test_non_string_config_bands_is_usage(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "haldane", "grid": "16", "bands": 5}))
        code, _, err = run(capsys, "gap", "--config", str(cfg))
        assert code == 1
        assert "error: bands:" in err

    def test_whole_spectrum_still_accepted(self, capsys):
        code, _, _ = run(
            capsys, "gap", "--model", "haldane", "--grid", "16", "--bands", "lowest:2"
        )
        assert code == 0


def _no_eigensolve(self, *args, **kwargs):
    raise AssertionError("eigensolve before the dimension check")


def _no_curvature(*args, **kwargs):
    raise AssertionError("curvature before the dimension check")


class TestModelDimension:
    SWEEP = ("--vary", "tp", "--from", "0.5", "--to", "1.5", "--steps", "3", "--grid", "32")

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("z2", "--model", "ssh", "--grid", "8"), "z2 needs a 2-dimensional model, got 1"),
            (("z2", "--model", "wilson_dirac_3d", "--grid", "4"),
             "z2 needs a 2-dimensional model, got 3"),
            (("z2-3d", "--model", "kane_mele", "--grid", "8"),
             "z2-3d needs a 3-dimensional model, got 2"),
            (("sweep", "--model", "ssh", *SWEEP, "--invariant", "chern"),
             "sweep --invariant chern needs a 2-dimensional model, got 1"),
        ],
        ids=["z2-ssh", "z2-wilson_dirac_3d", "z2_3d-kane_mele", "sweep-ssh-chern"],
    )
    def test_wrong_dimension_before_any_eigensolve(self, capsys, monkeypatch, argv, want):
        monkeypatch.setattr(ProjectorFamily, "eigensystems", _no_eigensolve)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"error: model: {want}" in err

    @pytest.mark.parametrize(
        "model,grid,got", [("ssh", "8", 1), ("wilson_dirac_3d", "4", 3)],
        ids=["ssh", "wilson_dirac_3d"],
    )
    def test_chern_wrong_dimension_before_curvature(self, capsys, monkeypatch, model, grid, got):
        # chern's gap check comes first, so a gapless 1D family stays exit 2
        # (TestExitCodes::test_gapless_family_is_physics)
        monkeypatch.setattr("blochtopo.cli.berry_curvature", _no_curvature)
        code, _, err = run(capsys, "chern", "--model", model, "--grid", grid)
        assert code == 1
        assert f"error: model: chern needs a 2-dimensional model, got {got}" in err

    def test_sweep_without_invariant_needs_no_dimension(self, capsys):
        code, doc, _ = run(capsys, "sweep", "--model", "ssh", *self.SWEEP)
        assert code == 0
        assert doc["invariant_kind"] == "none"


class TestSweepValues:
    BASE = {"model": "kane_mele", "grid": "16", "vary": "lv", "start": 0, "stop": 0.6, "steps": 3}

    def sweep(self, capsys, tmp_path, **overrides):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.BASE, **overrides}))
        return run(capsys, "sweep", "--config", str(cfg))

    def test_non_numeric_config_steps_is_usage(self, capsys, tmp_path):
        code, _, err = self.sweep(capsys, tmp_path, steps="abc")
        assert code == 1
        assert "error: steps: must be an integer, got 'abc'" in err

    def test_fractional_config_steps_is_usage(self, capsys, tmp_path):
        code, _, err = self.sweep(capsys, tmp_path, steps=2.5)
        assert code == 1
        assert "error: steps: must be an integer" in err

    def test_one_config_step_is_usage(self, capsys, tmp_path):
        code, _, err = self.sweep(capsys, tmp_path, steps=1)
        assert code == 1
        assert "error: steps: need at least 2 sweep points" in err

    def test_non_numeric_config_start_is_usage(self, capsys, tmp_path):
        code, _, err = self.sweep(capsys, tmp_path, start="abc")
        assert code == 1
        assert "error: start: must be a finite number, got 'abc'" in err

    def test_non_numeric_config_stop_is_usage(self, capsys, tmp_path):
        code, _, err = self.sweep(capsys, tmp_path, stop=[0.6])
        assert code == 1
        assert "error: stop: must be a finite number" in err

    def test_non_finite_start_flag_is_usage(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--model", "kane_mele", "--vary", "lv",
            "--from", "nan", "--to", "0.6", "--steps", "3", "--grid", "16",
        )
        assert code == 1
        assert "error: start: must be a finite number" in err

    def test_non_finite_stop_flag_is_usage(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--model", "kane_mele", "--vary", "lv",
            "--from", "0", "--to", "inf", "--steps", "3", "--grid", "16",
        )
        assert code == 1
        assert "error: stop: must be a finite number" in err

    def test_numeric_config_values_accepted(self, capsys, tmp_path):
        code, doc, _ = self.sweep(capsys, tmp_path, start="0", steps=3.0)
        assert code == 0
        assert [p["value"] for p in doc["points"]] == [0.0, 0.3, 0.6]


class TestPlaquetteGrid:
    # the plaquette Chern number needs 8 points per axis; chern, a chern
    # sweep and a 2D/3D wannier set (its obstruction check) use it
    WANT = "error: grid: the plaquette method needs at least 8 points per axis"

    @pytest.mark.parametrize(
        "argv",
        [
            ("chern", "--model", "haldane", "--grid", "4"),
            ("chern", "--model", "haldane", "--grid", "16,4"),
            ("sweep", "--model", "haldane", "--vary", "M",
             "--from", "0.9", "--to", "1.2", "--steps", "4", "--grid", "4"),
            ("wannier", "--model", "kane_mele", "--grid", "4", "--output", "w.csv"),
            ("wannier", "--model", "wilson_dirac_3d", "--grid", "4", "--output", "w.csv"),
        ],
        ids=["chern", "chern-one-axis", "sweep-chern", "wannier-2d", "wannier-3d"],
    )
    def test_coarse_grid_before_any_eigensolve(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(ProjectorFamily, "eigensystems", _no_eigensolve)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert self.WANT in err
        assert "Traceback" not in err

    def test_one_dimensional_wannier_still_runs(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        code, _, _ = run(capsys, "wannier", "--model", "ssh", "--grid", "4", "--output", str(out))
        assert code == 0
        assert out.exists()

    def test_z2_still_runs(self, capsys):
        code, doc, _ = run(capsys, "z2", "--model", "kane_mele", "--grid", "4")
        assert code == 0
        assert doc["agree"]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    @pytest.mark.parametrize("bands", ["lowest:2", "energy:5,6"])
    def test_missing_gap_is_null(self, capsys, bands):
        code = main(["gap", "--model", "haldane", "--grid", "16", "--bands", bands])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert doc["min_gap"] is None


class TestExactSymmetry:
    @pytest.mark.parametrize("grid", ["16", "32"])
    def test_aliased_model_refused_by_z2(self, capsys, tmp_path, aliased_model, grid):
        path = tmp_path / "aliased.json"
        save_model(aliased_model, path)
        code, _, err = run(capsys, "z2", "--model-file", str(path), "--grid", grid)
        assert code == 1
        assert err.count("error:") == 1 and err.startswith("error: time reversal fails")
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid,grid_holds", [("16", True), ("18", False)])
    def test_audit_reports_the_proof_beside_the_grid(
        self, capsys, tmp_path, aliased_model, grid, grid_holds
    ):
        path = tmp_path / "aliased.json"
        save_model(aliased_model, path)
        code, doc, _ = run(capsys, "audit", "--model-file", str(path), "--grid", grid)
        assert code == 0
        audit = doc["model_audit"]
        assert audit["verdicts"]["time_reversal"] is grid_holds
        assert audit["exact"]["time_reversal"] == pytest.approx(2.0)
        assert audit["exact"]["verdicts"] == {"time_reversal": False, "space_reflection": None}
        assert audit["exact"]["space_reflection"] is None

    def test_builtin_audit_proves_its_symmetries(self, capsys):
        code, doc, _ = run(capsys, "audit", "--model", "kane_mele", "--grid", "8")
        assert code == 0
        exact = doc["model_audit"]["exact"]
        assert exact["time_reversal"] == 0.0 and exact["space_reflection"] == 0.0
        assert exact["verdicts"] == {"time_reversal": True, "space_reflection": True}


class TestMalformedModelFile:
    def _write(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(build_builtin("kane_mele"), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_field_is_usage(self, capsys, tmp_path):
        path = self._write(tmp_path, lambda doc: doc.pop("basis"))
        code, _, err = run(capsys, "gap", "--model-file", path, "--grid", "8")
        assert code == 1
        assert err.startswith("error: model_file:") and "'basis'" in err

    def test_hopping_without_offset_is_usage(self, capsys, tmp_path):
        path = self._write(tmp_path, lambda doc: doc["hoppings"][0].pop("R"))
        code, _, err = run(capsys, "z2", "--model-file", path, "--grid", "8")
        assert code == 1
        assert err.startswith("error: model_file:") and "KeyError: 'R'" in err

    def test_non_json_model_file_is_usage(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json {")
        code, _, err = run(capsys, "gap", "--model-file", str(path), "--grid", "8")
        assert code == 1
        assert err.startswith("error: model_file:")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone; fileno is a real descriptor to redirect."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedStdout:
    def test_broken_pipe_exits_one(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
            code = main(["gap", "--model", "haldane", "--grid", "8"])
            monkeypatch.undo()
            # the descriptor now points at the null device
            os.write(fh.fileno(), b"late")
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: stdout closed before the report was written\n"
        assert (tmp_path / "stdout").read_text() == ""

    def test_closed_pipe_in_a_real_process(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(blochtopo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "blochtopo.cli", "gap", "--model", "haldane", "--grid", "8"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.stderr.count("error:") == 1

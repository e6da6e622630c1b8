"""Self-tests of the benchmark: tracer accounting, output checks, metric lists.

    python3 -m pytest -q bench
"""

import harness

harness.pin_blas_threads()
harness.import_program()

import json  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# matrices through numpy.linalg.eigh per CLI run, as measured by wrapping
# numpy.linalg.eigh alone (ROADMAP baseline table)
BASELINE_EIGH = {
    "gap-64": ("gap --model haldane --grid 64", 4096),
    "chern-64": ("chern --model haldane --grid 64", 36864),
    "chern-128": ("chern --model haldane --grid 128", 147456),
    "z2-48": ("z2 --model kane_mele --params lv=0.1 --grid 48", 25619),
    "z2-3d-12": ("z2-3d --model wilson_dirac_3d --grid 12", 9966),
    "sweep": ("sweep --model kane_mele --vary lv --from 0.0 --to 0.6 --steps 13 --grid 16", 21984),
    "audit-48": ("audit --model kane_mele --grid 48", 9216),
}


def _capturing_job(label, command, docs):
    # the check keeps each parsed document, so both runs can be compared
    return workloads.Job(label, tuple(command.split()), lambda doc: docs.append(doc) or [], 0, 0)


@pytest.fixture(scope="module")
def baseline_runs():
    """Each baseline case once untraced and once traced, in this process."""
    runs = {}
    for label, (command, _) in BASELINE_EIGH.items():
        plain, traced = [], []
        _, _, problems = harness.run_pass([_capturing_job(label, command, plain)])
        trace, (wall, _, traced_problems) = tracer.traced_pass([_capturing_job(label, command, traced)])
        assert problems == [[]] and traced_problems == [[]]
        runs[label] = {"plain": plain[0], "traced": traced[0], "layers": trace.summary(), "wall": wall}
    return runs


@pytest.mark.parametrize("label", sorted(BASELINE_EIGH))
def test_traced_eigh_counts_match_baseline(baseline_runs, label):
    layers = baseline_runs[label]["layers"]
    assert layers["numpy.linalg.eigh"]["matrices"] == BASELINE_EIGH[label][1]


@pytest.mark.parametrize("label", sorted(BASELINE_EIGH))
def test_traced_json_equals_untraced_apart_from_timestamp(baseline_runs, label):
    plain, traced = dict(baseline_runs[label]["plain"]), dict(baseline_runs[label]["traced"])
    plain.pop("generated_at")
    traced.pop("generated_at")
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)


@pytest.mark.parametrize("label", sorted(BASELINE_EIGH))
def test_self_times_sum_to_traced_wall(baseline_runs, label):
    run_ = baseline_runs[label]
    self_sum = sum(layer["self_s"] for layer in run_["layers"].values())
    assert abs(self_sum - run_["wall"]) <= 0.01 * run_["wall"]
    assert run_["layers"]["cli.main"]["calls"] == 1


def test_install_reaches_consumer_names_and_undo_restores_them():
    import blochtopo.cli
    import blochtopo.frames
    import blochtopo.linalg
    import blochtopo.projectors

    lookups = {
        "frames.gap_check": lambda: blochtopo.frames.gap_check,
        "cli.z2_wilson_flow": lambda: blochtopo.cli.z2_wilson_flow,
        "frames.expm": lambda: blochtopo.frames.expm,
        "linalg.sla.logm": lambda: blochtopo.linalg.sla.logm,
        "numpy.linalg.eigh": lambda: np.linalg.eigh,
        "ProjectorFamily.frames": lambda: blochtopo.projectors.ProjectorFamily.frames,
        "BandSelection.separation": lambda: blochtopo.projectors.BandSelection.separation,
    }
    before = {name: get() for name, get in lookups.items()}
    undo = tracer.install(tracer.Tracer())
    try:
        during = {name: get() for name, get in lookups.items()}
    finally:
        undo()
    assert all(during[name] is not before[name] for name in lookups)
    assert all(get() is before[name] for name, get in lookups.items())


def test_every_per_layer_metric_names_a_traced_span():
    trace = tracer.Tracer()
    tracer.install(trace)()
    spans = set(trace.names)
    for name, _ in run.PER_LAYER:
        span = name.rsplit(".", 1)[0]
        assert span in spans or span in ("ratio", "trace"), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_jobs_repeat_and_keep_their_margins(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = [(job.argv, job.params) for job in workload.jobs(7, tmp_path)]
    again = [(job.argv, job.params) for job in workload.jobs(7, tmp_path)]
    other = [(job.argv, job.params) for job in workload.jobs(8, tmp_path)]
    assert first == again
    assert first != other
    for seed in range(25):
        for job in workload.jobs(seed, tmp_path):
            assert job.margin >= 0.125, (seed, job.label, job.margin)
    labels = {job.label for job in workload.jobs(0, tmp_path)}
    assert {workload.cold, workload.largest} <= labels


def test_checks_reject_wrong_answers():
    chern = {"agree": True, "curvature_method": {"value": 1}, "plaquette_method": {"value": 1}}
    assert workloads._check_chern(1)(chern) == []
    assert workloads._check_chern(-1)(chern) != []
    assert workloads._check_chern(1)(dict(chern, agree=False)) != []
    sweep = {
        "points": [{"value": 0.1, "gapless": False, "invariant": 1},
                   {"value": 0.3, "gapless": False, "invariant": 0}],
        "transitions": [[0.1, 0.3]],
    }
    assert workloads._check_sweep(0.2, 1, 0)(sweep) == []
    assert workloads._check_sweep(0.35, 1, 0)(sweep) != []
    assert workloads._check_z2_3d((1, 0, 0, 0))(
        {"consistent": True, "strong": 1,
         "indices": dict(zip(workloads.Z2_3D_NAMES, (0, 1, 0, 0)))}
    ) != []
    assert workloads._check_wannier({"norm_defect": 2e-8, "orthonormality_defect": 0.0}) != []
    job = workloads.Job("x", (), workloads._check_wannier, 0, 0)
    assert job.problems(2, "", "physics error") != []


def test_bhz_closed_form_gap_matches_program(tmp_path):
    params = {"A": 1.1, "B": 0.9, "M": -1.3}
    job = workloads.Job(
        "gap", ("gap", "--model", "bhz", "--params", workloads._params(params), "--grid", "16"),
        workloads._check_gap(workloads._bhz_min_gap(params, 16)), 0, 0,
    )
    assert harness.run_inprocess(job)[1] == []


def test_percentile_matches_statistics_quantiles():
    data = list(np.random.default_rng(3).exponential(size=37))
    expected = statistics.quantiles(data, n=4, method="inclusive")
    assert [run.percentile(data, p) for p in (25, 50, 75)] == pytest.approx(expected)


def test_benchmark_json_names_the_metrics_and_workloads_run_prints():
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]

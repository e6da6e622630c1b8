"""Outside-in benchmark of blochtopo.

    python3 bench/run.py --workload grid-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload's job list is drawn from the
seed (see workloads.py) and driven through blochtopo.cli.main in-process,
one job at a time; cold metrics come from fresh child processes, one at a
time. Every job's output is checked against an independent reference.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced pass made in a child process (tracer.py), next to
untraced passes made here. The last line of standard output is the result
object; the line before it is a report with the environment, the seed, the
jobs and the sample counts behind each metric.
"""

import harness

harness.pin_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("invariants_per_s", "1/s"),
    ("setup_s", "s"),
    ("cold_job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "1"),
)

# "<span name>.<field>": self_s is span time minus child spans, calls the
# span count, anything else a work count recorded by tracer.COUNTERS
PER_LAYER = (
    ("projectors.BandSelection.separation.calls", "count"),
    ("projectors.BandSelection.separation.self_s", "s"),
    ("projectors.BandSelection.select.calls", "count"),
    ("projectors.ProjectorFamily.eigensystems.self_s", "s"),
    ("projectors.ProjectorFamily.eigensystems.kpoints", "count"),
    ("projectors.ProjectorFamily.projectors.self_s", "s"),
    ("projectors.ProjectorFamily.projectors.kpoints", "count"),
    ("projectors.ProjectorFamily.frames.self_s", "s"),
    ("projectors.ProjectorFamily.frames.kpoints", "count"),
    ("projectors.gap_check.calls", "count"),
    ("projectors.gap_check.self_s", "s"),
    ("projectors.verify_projector_symmetries.calls", "count"),
    ("projectors.verify_projector_symmetries.self_s", "s"),
    ("models.bloch_hamiltonian_batch.self_s", "s"),
    ("models.bloch_hamiltonian_batch.kpoints", "count"),
    ("models.verify_model_symmetries.self_s", "s"),
    ("models.build_builtin.self_s", "s"),
    ("models.load_model.self_s", "s"),
    ("geometry.berry_curvature.self_s", "s"),
    ("geometry.chern_number_plaquette.self_s", "s"),
    ("frames.parallel_transport.self_s", "s"),
    ("frames.parallel_transport.path_points", "count"),
    ("frames.kramers_frame.calls", "count"),
    ("frames.kramers_frame.self_s", "s"),
    ("frames.z2_boundary_winding.self_s", "s"),
    ("frames.z2_3d.self_s", "s"),
    ("frames.z2_wilson_flow.self_s", "s"),
    ("frames.z2_wilson_flow.aux_rows", "count"),
    ("frames.smooth_periodic_frame.self_s", "s"),
    ("linalg.unitary_geodesic.calls", "count"),
    ("linalg.unitary_geodesic.self_s", "s"),
    ("linalg.unitary_log.calls", "count"),
    ("linalg.closest_unitary.calls", "count"),
    ("wannier.wannier_from_frame.self_s", "s"),
    ("wannier.localization_moments.self_s", "s"),
    ("wannier.decay_fit.self_s", "s"),
    ("wannier.export_wannier_csv.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("numpy.linalg.eigh.matrices", "count"),
    ("numpy.linalg.eigh.self_s", "s"),
    ("numpy.linalg.svd.matrices", "count"),
    ("numpy.linalg.det.matrices", "count"),
    ("scipy.linalg.logm.calls", "count"),
    ("scipy.linalg.logm.self_s", "s"),
    ("scipy.linalg.expm.calls", "count"),
    ("ratio.eigh_per_grid_point", "1"),
    ("ratio.logm_per_boundary_segment", "1"),
    ("trace.overhead_frac", "1"),
)

# fresh-process samples, one of each after each measured pass, so that a
# burst of load on the machine touches few of them
FRESH_SAMPLES = 9
# a slow program stops adding passes here, so a run ends within its time limit
MAX_WINDOW_S = 90.0
BOUNDARY_SEGMENTS = 3  # geodesic segments per z2_boundary_winding call


def percentile(samples, pct):
    """Linear interpolation between closest ranks, as statistics.quantiles (inclusive)."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Jobs attempted and failed over the whole run, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, per_job_problems):
        self.attempted += len(per_job_problems)
        for found in per_job_problems:
            self.failed += bool(found)
            self.problems.extend(found[: max(0, 20 - len(self.problems))])


def measure_passes(jobs, seconds, min_passes, tally, between=None):
    """Untraced passes until they add up to `seconds` and at least `min_passes` ran.

    between() runs after each pass, outside the measured time.
    """
    walls, job_times, certified = [], [], 0
    while True:
        measured = sum(walls)
        if measured >= seconds and (len(walls) >= min_passes or measured >= MAX_WINDOW_S):
            break
        wall, times, problems = harness.run_pass(jobs)
        tally.add(problems)
        walls.append(wall)
        job_times.extend(times)
        certified += sum(job.invariants for job, found in zip(jobs, problems) if not found)
        if between is not None:
            between()
    return walls, job_times, certified


class FreshProcesses:
    """setup_s and cold_job_s samples, each from a fresh child process."""

    def __init__(self, workload, jobs, work, tally):
        by_label = {job.label: job for job in jobs}
        self.cold_job = by_label[workload.cold]
        self.largest_job = by_label[workload.largest]
        self.work = work
        self.tally = tally
        self.setup = []
        self.cold = []

    def sample(self):
        if len(self.setup) >= FRESH_SAMPLES:
            return
        seconds, code, _, err, _ = harness.run_child(["-c", "import blochtopo"], self.work)
        self.tally.add([[f"import blochtopo: exit code {code}: {err[-300:]}"] if code else []])
        self.setup.append(seconds)
        self.cold.append(self._cli(self.cold_job)[0])

    def peak_rss_mb(self):
        return self._cli(self.largest_job)[4]

    def _cli(self, job):
        result = harness.run_child(["-m", "blochtopo.cli", *job.argv], self.work)
        _, code, out, err, _ = result
        self.tally.add([job.problems(code, out, err)])
        return result


def end_to_end(workload, jobs, args, work, tally, report):
    fresh = FreshProcesses(workload, jobs, work, tally)
    peak_rss_mb = fresh.peak_rss_mb()
    _, _, warm = harness.run_pass(jobs)
    tally.add(warm)
    walls, job_times, certified = measure_passes(
        jobs, args.seconds, workload.min_passes, tally, between=fresh.sample
    )
    while len(fresh.setup) < FRESH_SAMPLES:
        fresh.sample()
    # fixed per workload so that it is comparable across runs and commits;
    # with min_passes it leaves at least ten job samples beyond it
    tail_pct = 100.0 * (1.0 - 10.0 / (len(jobs) * workload.min_passes))
    job_tail_s = percentile(job_times, tail_pct)
    report["window"] = {
        "measured_s": sum(walls),
        "passes": len(walls),
        "job_samples": len(job_times),
        "tail_percentile": tail_pct,
        "samples_beyond_tail": sum(t > job_tail_s for t in job_times),
        "setup_samples_s": fresh.setup,
        "cold_samples_s": fresh.cold,
        "cold_job": workload.cold,
        "largest_job": workload.largest,
    }
    return {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": job_tail_s,
        "invariants_per_s": certified / sum(walls),
        "setup_s": statistics.median(fresh.setup),
        "cold_job_s": statistics.median(fresh.cold),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, jobs, args, work, tally, report):
    _, _, warm = harness.run_pass(jobs)
    tally.add(warm)
    walls, _, _ = measure_passes(jobs, args.seconds / 2, 1, tally)
    untraced = statistics.median(walls)
    argv = [str(harness.BENCH / "tracer.py"), "--workload", args.workload, "--seed", str(args.seed)]
    _, code, out, err, _ = harness.run_child(argv, work)
    if code != 0:
        raise SystemExit(f"error: traced child exited with {code}:\n{err[-2000:]}")
    traced = json.loads(out.splitlines()[-1])
    tally.attempted += traced["attempted"]
    tally.failed += traced["failed"]
    tally.problems.extend(traced["problems"][:20])

    layers = traced["layers"]
    self_sum = sum(v["self_s"] for v in layers.values())
    boundary_calls = layers["frames.z2_boundary_winding"]["calls"]
    special = {
        "ratio.eigh_per_grid_point": layers["numpy.linalg.eigh"]["matrices"]
        / sum(job.grid_points for job in jobs),
        "ratio.logm_per_boundary_segment": layers["scipy.linalg.logm"]["calls"]
        / (BOUNDARY_SEGMENTS * boundary_calls) if boundary_calls else 0.0,
        "trace.overhead_frac": (traced["wall_s"] - untraced) / untraced,
    }
    report["traced_run"] = {
        "untraced_passes": len(walls),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced["wall_s"],
        "spans": traced["spans"],
        "self_time_sum_s": self_sum,
        "self_time_sum_vs_traced_wall": self_sum / traced["wall_s"] - 1.0,
        "traced_job_s": dict(zip((job.label for job in jobs), traced["job_s"])),
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        else:
            span, field = name.rsplit(".", 1)
            metrics[name] = layers[span].get(field, 0)
    return metrics


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    harness.import_program()
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    with harness.workdir() as work:
        jobs = workload.jobs(args.seed, work)
        report = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "trace": args.trace,
            "environment": harness.environment(),
            "load": "closed loop, one client, one job at a time, at most one child process",
            "jobs": [job.describe() for job in jobs],
        }
        if args.trace:
            metrics, units = per_layer(workload, jobs, args, work, tally, report), dict(PER_LAYER)
        else:
            metrics, units = end_to_end(workload, jobs, args, work, tally, report), dict(END_TO_END)
            metrics["pass_frac"] = 1.0 - tally.failed / tally.attempted
    report["problems"] = tally.problems
    for name, value in metrics.items():
        print(f"{name:50s} {value:.6g} {units[name]}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main(sys.argv[1:])

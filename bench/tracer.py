"""Span tracer that wraps blochtopo's public functions from outside.

Each wrapped call records a span: name, start, end, parent span and job id.
Spans stay in memory (compact arrays) until `summary` folds them into
per-name calls, self time (span minus child spans) and work counts.

`install` replaces every public function of the traced modules, the public
methods of ProjectorFamily and BandSelection, and the NumPy/SciPy kernels
the program calls, in every namespace that a consumer looks them up in:
the defining module, each blochtopo module that imported the name (such as
blochtopo.frames.gap_check or blochtopo.cli.z2_wilson_flow), and numpy.linalg
and scipy.linalg themselves (blochtopo.linalg reaches logm through its
`sla` alias of scipy.linalg).

Run as a script, it is the benchmark's traced child process: an untraced
warm-up pass, then one traced pass of the workload, reported as one JSON
line. Untraced measurements therefore never run with wrappers in place.
"""

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import harness

# the modules whose public functions are layers; core (grid construction)
# and floquet (no CLI path reaches it) stay unwrapped
LAYERS = ("models", "projectors", "geometry", "frames", "linalg", "wannier", "cli")
TRACED_CLASSES = ("BandSelection", "ProjectorFamily")


def _kpoints(args, kwargs, result):
    points = args[1]
    # a 1-d array is a single point (ProjectorFamily._points reshapes it)
    return {"kpoints": len(points) if getattr(points, "ndim", 2) == 2 else 1}


def _matrices(args, kwargs, result):
    shape = getattr(args[0], "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= n
    return {"matrices": count}


def _path_points(args, kwargs, result):
    return {"path_points": len(args[2])}


def _aux_rows(args, kwargs, result):
    return {"aux_rows": int(result.residuals["aux_rows"])}


# work counted per call, keyed by span name
COUNTERS = {
    "projectors.ProjectorFamily.eigensystems": _kpoints,
    "projectors.ProjectorFamily.projectors": _kpoints,
    "projectors.ProjectorFamily.frames": _kpoints,
    "models.bloch_hamiltonian_batch": _kpoints,
    "frames.parallel_transport": _path_points,
    "frames.z2_wilson_flow": _aux_rows,
    "numpy.linalg.eigh": _matrices,
    "numpy.linalg.svd": _matrices,
    "numpy.linalg.det": _matrices,
}

# (module, attribute, span name)
KERNELS = (
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("numpy.linalg", "svd", "numpy.linalg.svd"),
    ("numpy.linalg", "det", "numpy.linalg.det"),
    ("scipy.linalg", "logm", "scipy.linalg.logm"),
    ("scipy.linalg", "expm", "scipy.linalg.expm"),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.job = -1
        self._span_name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._counts = defaultdict(lambda: defaultdict(int))

    def wrap(self, name, fn):
        """`fn` recording one span per call under `name`."""
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        counts = self._counts[name]
        span_name, parent, job = self._span_name, self._parent, self._job
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def summary(self):
        """{name: {"calls", "self_s", work counts...}} over all spans."""
        import numpy as np

        names = np.frombuffer(self._span_name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        own = duration - children
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        self_s = np.bincount(names, weights=own, minlength=size)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
            out[name].update(self._counts[name])
        return out

    def spans(self):
        return len(self._start)


def install(tracer):
    """Wrap every traced name where its consumers look it up; returns an undo callable."""
    patches = []  # (owner, attribute, original)
    wrapped = {}  # id(original) -> (original, wrapper)

    def patch(owner, attr, original, wrapper):
        patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        wrapped[id(original)] = (original, wrapper)

    for layer in LAYERS:
        module = importlib.import_module(f"blochtopo.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                patch(module, attr, fn, tracer.wrap(f"{layer}.{attr}", fn))
    projectors = importlib.import_module("blochtopo.projectors")
    for cls_name in TRACED_CLASSES:
        cls = getattr(projectors, cls_name)
        for attr, fn in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                patch(cls, attr, fn, tracer.wrap(f"projectors.{cls_name}.{attr}", fn))
    for module_name, attr, name in KERNELS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        patch(module, attr, fn, tracer.wrap(name, fn))

    # names bound by `from x import y` in other blochtopo modules
    for module_name, module in list(sys.modules.items()):
        if module_name != "blochtopo" and not module_name.startswith("blochtopo."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])

    def undo():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo


def traced_pass(jobs):
    """One pass over `jobs` under a fresh tracer; returns (tracer, (wall, times, problems))."""
    tracer = Tracer()
    undo = install(tracer)
    try:
        result = harness.run_pass(jobs, lambda index: setattr(tracer, "job", index))
    finally:
        undo()
    return tracer, result


def _main(argv):
    import argparse
    import json

    harness.pin_blas_threads()
    harness.import_program()
    import workloads

    parser = argparse.ArgumentParser(description="traced pass of one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with harness.workdir() as work:
        jobs = workloads.WORKLOADS[args.workload].jobs(args.seed, work)
        _, _, warm_problems = harness.run_pass(jobs)
        tracer, (wall, times, problems) = traced_pass(jobs)
    per_job = warm_problems + problems
    print(json.dumps({
        "wall_s": wall,
        "job_s": times,
        "spans": tracer.spans(),
        "layers": tracer.summary(),
        "attempted": len(per_job),
        "failed": sum(1 for found in per_job if found),
        "problems": [p for found in per_job for p in found],
    }))


if __name__ == "__main__":
    _main(sys.argv[1:])

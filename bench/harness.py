"""Process set-up and job execution shared by the benchmark's entry points.

Nothing here imports NumPy at module level: `pin_blas_threads` must run
before the first NumPy import for the BLAS thread caps to take effect, and
the entry points call it before importing anything else from this directory.
"""

import contextlib
import io
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# the CLI's --threads flag needs threadpoolctl, which is not installed, so
# the caps are applied through the environment, before NumPy loads BLAS
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_pinned_before_numpy = None


def pin_blas_threads():
    """Cap every BLAS thread pool of this process and its children at 1."""
    global _pinned_before_numpy
    if _pinned_before_numpy is None:
        _pinned_before_numpy = "numpy" not in sys.modules
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import blochtopo from this checkout's src/, and nowhere else."""
    package = SRC / "blochtopo"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import blochtopo

    if Path(blochtopo.__file__).resolve().parent != package:
        raise SystemExit(f"error: blochtopo was imported from {blochtopo.__file__}, not {package}")


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


@contextlib.contextmanager
def workdir():
    """Scratch directory inside the checkout, removed on exit."""
    path = ROOT / ".bench_work" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def run_inprocess(job):
    """Run one CLI job through blochtopo.cli.main; returns (seconds, problems).

    cli.main is looked up at call time, so a traced run reaches its wrapper.
    """
    from blochtopo import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:
        # one broken job must not hide the results of the others
        return time.perf_counter() - start, [f"{job.label}: raised\n{traceback.format_exc()}"]
    seconds = time.perf_counter() - start
    return seconds, job.problems(code, out.getvalue(), err.getvalue())


def run_pass(jobs, on_start=None):
    """One closed-loop pass over the job list.

    Returns (wall seconds, per-job seconds, per-job problem lists). on_start(index)
    runs before each job; the tracer uses it to tag spans with the job.
    """
    start = time.perf_counter()
    times, problems = [], []
    for index, job in enumerate(jobs):
        if on_start is not None:
            on_start(index)
        seconds, found = run_inprocess(job)
        times.append(seconds)
        problems.append(found)
    return time.perf_counter() - start, times, problems


def run_child(argv, cwd, timeout=120):
    """Run a fresh Python child; returns (seconds, exit code, stdout, stderr, peak RSS in MiB).

    Output goes to files rather than pipes so that waiting on the child
    with os.wait4, which yields the rusage of that one child, cannot
    deadlock on a full pipe.
    """
    out_path = Path(cwd) / f"child-{uuid.uuid4().hex[:8]}.out"
    err_path = out_path.with_suffix(".err")
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=child_env(), stdout=out, stderr=err
        )
        deadline = start + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.001)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    out_path.unlink()
    err_path.unlink()
    return seconds, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown: {exc}"
    return done.stdout.strip() or f"unknown: {done.stderr.strip()}"


def environment():
    """Versions, BLAS vendor, CPU count, commit and the thread caps applied."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads_pinned_before_numpy_import": bool(_pinned_before_numpy),
        "blas_threads_pinned_in_children": True,
    }

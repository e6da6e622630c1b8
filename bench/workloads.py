"""Seeded job lists for the three workloads, with independent output checks.

Every parameter point is drawn from the seed inside a phase whose invariant
is known in closed form, at a recorded relative margin from the nearest
phase boundary, so that refinement and bisection retries do not change from
seed to seed. References come from those phase diagrams, never from the
program's output:

- Haldane: the gap closes at |M| = 3 sqrt(3) |t2 sin(phi)|; inside, the
  lowest band has C = sign(sin(phi)) (C = +1 at phi = pi/2, M = 0, and
  phi -> -phi is complex conjugation, which flips C).
- Kane-Mele (lr = 0): quantum spin Hall, delta = 1, for lv < 3 sqrt(3) lso.
  A Rashba term lr shrinks that region; with lr <= 0.3 lso the 0.6 margin
  below keeps every point far inside it.
- BHZ (C = D = 0, B > 0): delta = 1 for -4B < M < 0, delta = 0 for M > 0;
  the spectrum is +-|d(k)| with d = (A sin kx, A sin ky, M + 4B - 2B(cos kx
  + cos ky)), so the minimum gap on a grid is 2 min |d|.
- Wilson-Dirac 3D: gapless only at m in {-3, -1, 1, 3}; for -3 < m < -1 the
  index quadruple is (1, 0, 0, 0), strong 1; for m < -3 all four are 0.
- Direct sums: delta is additive mod 2 over the copies.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag
from blochtopo.core import TimeReversal
from blochtopo.models import HoppingModel, kane_mele, save_model

SQRT27 = 3.0 * np.sqrt(3.0)
Z2_3D_NAMES = ("delta_1_0", "delta_1_plus", "delta_2_plus", "delta_3_plus")
DEFECT_LIMIT = 1e-8


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must say."""

    label: str
    argv: tuple
    check: object  # parsed JSON document -> list of problems
    invariants: int  # certified invariants the job yields when it passes
    grid_points: int  # k-points of the job's grids, over all sweep points
    params: dict = field(default_factory=dict)
    reference: object = None
    margin: float = None  # relative distance of the point to the nearest phase boundary

    def problems(self, code, stdout, stderr=""):
        if code != 0:
            return [f"{self.label}: exit code {code}: {stderr.strip()[:300]}"]
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"{self.label}: output is not JSON: {exc}"]
        return [f"{self.label}: {p}" for p in self.check(doc)]

    def describe(self):
        return {
            "label": self.label,
            "argv": list(self.argv),
            "params": self.params,
            "reference": self.reference,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (rng, workdir) -> list of Job
    min_passes: int  # passes measured even when --seconds runs out first
    cold: str  # label of the job timed as a fresh CLI process
    largest: str  # label of the job whose fresh process gives peak RSS

    def jobs(self, seed, workdir):
        return self.build(np.random.default_rng(seed), workdir)


def _num(value):
    return repr(float(value))


def _params(values):
    return ",".join(f"{k}={_num(v)}" for k, v in values.items())


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what} is {got!r}, expected {want!r}")


# ---------------------------------------------------------------- checks


def _check_chern(expected):
    def check(doc):
        problems = []
        _expect(problems, "agree", doc.get("agree"), True)
        for method in ("curvature_method", "plaquette_method"):
            _expect(problems, f"{method}.value", doc.get(method, {}).get("value"), expected)
        return problems

    return check


def _check_z2(expected):
    def check(doc):
        problems = []
        _expect(problems, "agree", doc.get("agree"), True)
        _expect(problems, "delta", doc.get("delta"), expected)
        for method in ("boundary_winding", "wilson_flow"):
            _expect(problems, f"{method}.delta", doc.get(method, {}).get("delta"), expected)
        return problems

    return check


def _check_z2_3d(quadruple):
    def check(doc):
        problems = []
        _expect(problems, "consistent", doc.get("consistent"), True)
        _expect(problems, "indices", doc.get("indices"), dict(zip(Z2_3D_NAMES, quadruple)))
        _expect(problems, "strong", doc.get("strong"), (quadruple[0] + quadruple[1]) % 2)
        return problems

    return check


def _check_sweep(critical, inside, outside):
    """Every point carries its phase's invariant; one transition brackets critical."""

    def check(doc):
        problems = []
        for point in doc.get("points", []):
            want = inside if point["value"] < critical else outside
            _expect(problems, f"gapless at {point['value']:.6f}", point.get("gapless"), False)
            _expect(problems, f"invariant at {point['value']:.6f}", point.get("invariant"), want)
        transitions = doc.get("transitions", [])
        if len(transitions) != 1 or not transitions[0][0] < critical < transitions[0][1]:
            problems.append(f"transitions {transitions} do not bracket {critical!r} once")
        return problems

    return check


def _check_audit(doc):
    # Kane-Mele always carries its fermionic time reversal
    problems = []
    projector = doc.get("projector_audit", {})
    _expect(problems, "projector time_reversal", projector.get("verdicts", {}).get("time_reversal"), True)
    _expect(problems, "even_rank_violation", projector.get("even_rank_violation"), False)
    model = doc.get("model_audit", {}).get("verdicts", {})
    _expect(problems, "model time_reversal", model.get("time_reversal"), True)
    return problems


def _check_gap(expected_gap):
    def check(doc):
        problems = []
        _expect(problems, "gapless", doc.get("gapless"), False)
        got = doc.get("min_gap")
        if not isinstance(got, float) or abs(got - expected_gap) > 1e-9 * max(1.0, expected_gap):
            problems.append(f"min_gap is {got!r}, closed form gives {expected_gap!r}")
        return problems

    return check


def _check_wannier(doc):
    problems = []
    for key in ("norm_defect", "orthonormality_defect"):
        value = doc.get(key)
        if not isinstance(value, float) or not value < DEFECT_LIMIT:
            problems.append(f"{key} is {value!r}, limit {DEFECT_LIMIT}")
    return problems


# ------------------------------------------------------- parameter draws


def _haldane_point(rng, chern):
    """Haldane point with the given C, at margin >= 0.4 from the gap closing."""
    t2 = rng.uniform(0.15, 0.25)
    sign = -1.0 if chern < 0 else 1.0
    phi = sign * (np.pi / 2 + rng.uniform(-0.25, 0.25))
    critical = SQRT27 * abs(t2 * np.sin(phi))
    if chern == 0:
        ratio = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 2.0)
    else:
        ratio = rng.uniform(-0.6, 0.6)
    params = {"t2": t2, "phi": phi, "M": ratio * critical}
    return params, abs(abs(ratio) - 1.0)


def _kane_mele_point(rng, delta):
    """Kane-Mele point with the given delta, at margin >= 0.6 from lv = 3 sqrt(3) lso."""
    lso = rng.uniform(0.05, 0.08)
    ratio = rng.uniform(0.0, 0.4) if delta else rng.uniform(1.6, 2.0)
    params = {"lso": lso, "lr": lso * rng.uniform(0.0, 0.3), "lv": ratio * SQRT27 * lso}
    return params, abs(ratio - 1.0)


def _bhz_point(rng, delta):
    """BHZ point with the given delta, at margin >= 0.125 of the -4B..0 band-inversion range."""
    a, b = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    ratio = -rng.uniform(1.0, 3.0) if delta else rng.uniform(0.5, 1.5)
    margin = min(abs(ratio), abs(ratio + 4.0)) / 4.0
    return {"A": a, "B": b, "M": ratio * b}, margin


def _bhz_min_gap(params, n):
    k = 2 * np.pi * np.arange(-n // 2, n // 2) / n
    kx, ky = np.meshgrid(k, k, indexing="ij")
    a, b, m = params["A"], params["B"], params["M"]
    dz = m + 4 * b - 2 * b * (np.cos(kx) + np.cos(ky))
    return float(2 * np.min(np.sqrt((a * np.sin(kx)) ** 2 + (a * np.sin(ky)) ** 2 + dz**2)))


def _sweep_range(rng, critical, steps=13):
    """Sweep from 0 over `steps` points; critical falls 30-70% into the middle interval."""
    middle = (steps - 1) // 2
    spacing = critical / (middle + rng.uniform(0.3, 0.7))
    return 0.0, spacing * (steps - 1), spacing


def _direct_sum(models):
    """Block-diagonal sum of hopping models on one lattice, fermionic TR kept."""
    offsets = sorted(set().union(*(m.hoppings for m in models)))
    absent = [np.zeros((m.fiber_dim, m.fiber_dim), dtype=complex) for m in models]
    return HoppingModel(
        lattice=models[0].lattice,
        fiber_dim=sum(m.fiber_dim for m in models),
        n_occ=sum(m.n_occ for m in models),
        hoppings={
            r: block_diag(*(m.hoppings.get(r, z) for m, z in zip(models, absent)))
            for r in offsets
        },
        time_reversal=TimeReversal(block_diag(*(m.time_reversal.unitary for m in models)), -1),
        name="direct_sum",
    )


# ----------------------------------------------------------- workloads


def grid_dense(rng, workdir):
    jobs = []
    for chern, label in ((1, "chern C=+1"), (-1, "chern C=-1"), (0, "chern C=0")):
        params, margin = _haldane_point(rng, chern)
        jobs.append(Job(
            label, ("chern", "--model", "haldane", "--params", _params(params), "--grid", "128"),
            _check_chern(chern), 1, 128**2, params, chern, margin,
        ))
    params, margin = _kane_mele_point(rng, int(rng.integers(2)))
    jobs.append(Job(
        "audit", ("audit", "--model", "kane_mele", "--params", _params(params), "--grid", "128"),
        _check_audit, 0, 128**2, params, "time reversal holds", margin,
    ))
    params, margin = _bhz_point(rng, 1)
    gap = _bhz_min_gap(params, 128)
    jobs.append(Job(
        "gap", ("gap", "--model", "bhz", "--params", _params(params), "--grid", "128"),
        _check_gap(gap), 0, 128**2, params, gap, margin,
    ))
    lso = 0.06
    params = {"lso": lso, "lv": rng.uniform(0.55, 0.65)}
    jobs.append(Job(
        "wannier",
        ("wannier", "--model", "kane_mele", "--params", _params(params), "--grid", "64",
         "--output", str(workdir / "wannier.csv")),
        _check_wannier, 0, 64**2, params, f"defects < {DEFECT_LIMIT}",
        params["lv"] / (SQRT27 * lso) - 1.0,
    ))
    return jobs


def z2_loops(rng, workdir):
    jobs = []
    for model, draw in (("kane_mele", _kane_mele_point), ("bhz", _bhz_point)):
        for delta in (1, 0):
            params, margin = draw(rng, delta)
            jobs.append(Job(
                f"z2 {model} delta={delta}",
                ("z2", "--model", model, "--params", _params(params), "--grid", "48"),
                _check_z2(delta), 1, 48**2, params, delta, margin,
            ))
    for label, m, quadruple in (("z2-3d strong", rng.uniform(-2.3, -1.7), (1, 0, 0, 0)),
                                ("z2-3d trivial", rng.uniform(-4.5, -3.7), (0, 0, 0, 0))):
        margin = min(abs(m - c) for c in (-3.0, -1.0))
        jobs.append(Job(
            label, ("z2-3d", "--model", "wilson_dirac_3d", "--params", f"m={_num(m)}", "--grid", "12"),
            _check_z2_3d(quadruple), 1, 12**3, {"m": m}, list(quadruple), margin,
        ))

    steps = 13
    lso = rng.uniform(0.05, 0.07)
    critical = SQRT27 * lso
    start, stop, spacing = _sweep_range(rng, critical, steps)
    params = {"lso": lso, "lr": 0.0}
    jobs.append(Job(
        "sweep kane_mele lv",
        ("sweep", "--model", "kane_mele", "--params", _params(params), "--vary", "lv",
         "--from", _num(start), "--to", _num(stop), "--steps", str(steps), "--grid", "16"),
        _check_sweep(critical, 1, 0), steps, steps * 16**2, dict(params, lv=[start, stop]),
        {"critical": critical, "below": 1, "above": 0},
        min(abs(critical - v) for v in np.linspace(start, stop, steps)) / spacing,
    ))
    t2 = rng.uniform(0.15, 0.25)
    phi = np.pi / 2 + rng.uniform(-0.25, 0.25)
    critical = SQRT27 * abs(t2 * np.sin(phi))
    start, stop, spacing = _sweep_range(rng, critical, steps)
    params = {"t2": t2, "phi": phi}
    jobs.append(Job(
        "sweep haldane M",
        ("sweep", "--model", "haldane", "--params", _params(params), "--vary", "M",
         "--from", _num(start), "--to", _num(stop), "--steps", str(steps), "--grid", "24"),
        _check_sweep(critical, 1, 0), steps, steps * 24**2, dict(params, M=[start, stop]),
        {"critical": critical, "below": 1, "above": 0},
        min(abs(critical - v) for v in np.linspace(start, stop, steps)) / spacing,
    ))
    return jobs


def rank_high(rng, workdir):
    jobs = []
    for copies in (2, 3, 4):
        points = [_kane_mele_point(rng, int(rng.integers(2))) for _ in range(copies)]
        deltas = [int(p["lv"] < SQRT27 * p["lso"]) for p, _ in points]
        path = workdir / f"kane_mele_x{copies}.json"
        save_model(_direct_sum([kane_mele(**p) for p, _ in points]), path)
        expected = sum(deltas) % 2
        jobs.append(Job(
            f"z2 rank {2 * copies}", ("z2", "--model-file", str(path), "--grid", "24"),
            _check_z2(expected), 1, 24**2, {"copies": [p for p, _ in points]},
            {"copy_deltas": deltas, "delta": expected}, min(m for _, m in points),
        ))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-dense",
            "128^2 grids at band rank 1-2: eigensolves, band selection, projectors, "
            "link determinants and Wannier transforms dominate; frames and linalg idle",
            grid_dense, min_passes=4, cold="gap", largest="chern C=+1",
        ),
        Workload(
            "z2-loops",
            "2D and 3D Z2 plus phase sweeps at rank 2: parallel transport, logm/expm, "
            "Kramers frames, Wilson loops and doubled preconditions; only small off-grid batches",
            z2_loops, min_passes=12, cold="z2 bhz delta=0", largest="z2 kane_mele delta=1",
        ),
        Workload(
            "rank-high",
            "Z2 on direct sums of 2-4 Kane-Mele copies (rank 4-8) at 24^2: band rank is the "
            "large dimension, where Wilson-flow band matching is exposed",
            rank_high, min_passes=7, cold="z2 rank 4", largest="z2 rank 8",
        ),
    )
}

"""Bloch frames, Kramers pairs, and Z2 invariants.

A frame is an orthonormal basis of Ran P(k), stored per grid or path point.
This module builds them (Kato-Nagy intertwiners, discrete parallel
transport, smooth periodic frames when the Chern obstruction vanishes) and
computes the fermionic time-reversal Z2 invariant of two-dimensional
families by two independent routes:

* boundary winding: symmetrize a transported frame on the boundary of the
  effective half-cell [0,1/2] x [-1/2,1/2] using Kramers frames at the four
  boundary momenta fixed under k -> -k, and read off the winding number of
  det(transported^dagger symmetric) around the boundary loop, mod 2;
* Wilson flow: track the eigenphases of the k1 Wilson loop as k2 sweeps half
  a dual period and count crossings of a reference line, mod 2.

Both read overlaps of frames at neighbouring momenta from ``linalg.links``:
the half-cell flux fixing the holonomy branch sums ``plaquette_phases``,
and a Wilson loop is the ordered product of its links. The two must agree;
tests and the 3D driver enforce that. In 3D the four indices are the 2D
invariants of the six invariant planes k_j in {0, 1/2}, with the
redundancy of the strong index checked across plane pairs.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.linalg import expm, schur

from .core import TimeReversal, reshuffle_matrix
from .errors import (
    EvenRankError,
    FrameConstructionError,
    ObstructionError,
    ProjectorDistanceError,
    RefinementError,
    SymmetryError,
)
from .geometry import chern_number_plaquette, plaquette_phases, tau_closed
from .linalg import closest_unitary, links, operator_norm, unitary_geodesic, unitary_log
from .models import HoppingModel, exact_symmetry_residuals
from .projectors import gap_check, verify_projector_symmetries

__all__ = [
    "Frame",
    "BoundaryUnitary",
    "Z2Result",
    "Z23DResult",
    "kato_nagy",
    "parallel_transport",
    "kramers_frame",
    "effective_time_reversal",
    "smooth_periodic_frame",
    "z2_boundary_winding",
    "z2_wilson_flow",
    "z2_3d",
]


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal columns spanning Ran P at each of a list of momenta."""

    points: np.ndarray
    columns: np.ndarray
    flags: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    grid: object = None

    @property
    def npoints(self):
        return self.columns.shape[0]

    @property
    def rank(self):
        return self.columns.shape[2]

    def single(self):
        if self.npoints != 1:
            raise ValueError("not a single-point frame")
        return self.columns[0]


def kato_nagy(p1, p2):
    """Unitary W with W P1 W^dagger = P2, continuous in the pair.

    W = (I - (P2 - P1)^2)^{-1/2} (P2 P1 + (I - P2)(I - P1)); requires the
    operator-norm distance of the projectors to be below 1.
    """
    p1 = np.asarray(p1, dtype=complex)
    p2 = np.asarray(p2, dtype=complex)
    d = p2 - p1
    dist = operator_norm(d)
    if dist >= 1 - 1e-8:
        raise ProjectorDistanceError(
            f"projectors are unitarily too far apart: |P2 - P1| = {dist:.6f}"
        )
    m = p1.shape[0]
    eye = np.eye(m)
    core = eye - d @ d
    evals, evecs = np.linalg.eigh(core)
    inv_sqrt = (evecs * (1.0 / np.sqrt(evals))) @ evecs.conj().T
    w = inv_sqrt @ (p2 @ p1 + (eye - p2) @ (eye - p1))
    return closest_unitary(w)


def parallel_transport(family, start, path):
    """Transport a frame along an ordered list of reduced momenta.

    Each step projects the previous frame with the next projector and
    re-orthonormalizes by the polar factor, which is second-order accurate
    in the step size. Steps where consecutive projectors are unitarily too
    far apart, or where the projected frame nearly collapses, raise a
    refinement error naming the segment.
    """
    path = np.asarray(path, dtype=float)
    projs = family.projectors(path)
    cols = start.single() if isinstance(start, Frame) else np.asarray(start, dtype=complex)
    if np.linalg.norm(projs[0] @ cols - cols) > 1e-8:
        raise ValueError("start frame does not span the range of P at the first path point")
    npts, m_h = len(path), cols.shape[0]
    frames = np.empty((npts, m_h, cols.shape[1]), dtype=complex)
    frames[0] = cols
    max_step = 0.0
    min_sv = 1.0
    for j in range(1, npts):
        step = operator_norm(projs[j] - projs[j - 1])
        max_step = max(max_step, step)
        if step >= 1 - 1e-8:
            raise RefinementError(
                f"projector step {step:.4f} between path points {j - 1} and {j} "
                f"(k={tuple(path[j - 1])} -> {tuple(path[j])}); refine the path"
            )
        u, s, vh = np.linalg.svd(projs[j] @ frames[j - 1], full_matrices=False)
        smin = float(s[-1])
        min_sv = min(min_sv, smin)
        if smin < 1e-8:
            raise RefinementError(
                f"transported frame collapsed at path point {j} (k={tuple(path[j])})"
            )
        frames[j] = u @ vh
    return Frame(
        points=path,
        columns=frames,
        flags={"smooth": None, "tau_equivariant": None, "tr_symmetric": None},
        diagnostics={"max_step_distance": max_step, "min_polar_sv": min_sv},
    )


def effective_time_reversal(family, k_trim):
    """Theta_eff = tau(2 k) Theta, the antiunitary fixing Ran P(k) at a TRIM."""
    theta = family.time_reversal
    if theta is None:
        raise SymmetryError("family carries no time reversal")
    two_k = 2 * np.asarray(k_trim, dtype=float)
    lam = np.round(two_k).astype(int)
    if np.max(np.abs(two_k - lam)) > 1e-12:
        raise ValueError(f"{tuple(k_trim)} is not a time-reversal invariant momentum")
    return TimeReversal(family.tau.matrix(lam) @ theta.unitary, theta.sign)


def kramers_frame(p, theta_eff, tol=1e-9):
    """Frame of Ran P paired as (phi_a, Theta_eff phi_a), fermionic case.

    The returned columns satisfy Phi = Theta_eff Phi eps with eps the
    standard rank-m symplectic reshuffling matrix: column a + m/2 is
    Theta_eff applied to column a. Construction picks the dominant
    eigenvector of the unassigned part of P, pairs it, projects the pair
    out, and recurses.
    """
    if theta_eff.sign != -1:
        raise SymmetryError("Kramers frames need a fermionic time reversal")
    p = np.asarray(p, dtype=complex)
    trace = float(np.real(np.trace(p)))
    m = int(round(trace))
    if abs(trace - m) > 1e-8:
        raise ValueError(f"projector trace {trace} is not close to an integer")
    if m % 2 != 0:
        raise EvenRankError(f"Kramers pairing needs an even rank, got {m}")
    if operator_norm(theta_eff.conjugate(p) - p) > tol:
        raise SymmetryError("Theta_eff does not preserve the range of P")
    m_h = p.shape[0]
    remaining = p.copy()
    firsts, seconds, built = [], [], []
    for _ in range(m // 2):
        evals, evecs = np.linalg.eigh(remaining)
        if evals[-1] < 0.5:
            raise FrameConstructionError("unassigned part of P lost rank during pairing")
        v = evecs[:, -1]
        for b in built:
            v = v - b * (b.conj() @ v)
        v = v / np.linalg.norm(v)
        w = theta_eff.apply(v)
        for b in built + [v]:
            w = w - b * (b.conj() @ w)
        w = w / np.linalg.norm(w)
        firsts.append(v)
        seconds.append(w)
        built.extend([v, w])
        remaining = remaining - np.outer(v, v.conj()) - np.outer(w, w.conj())
    phi = np.stack(firsts + seconds, axis=1)
    eps = reshuffle_matrix(m, -1)
    residual = float(np.linalg.norm(phi - theta_eff.apply(phi) @ eps))
    if residual > tol:
        raise FrameConstructionError(f"Kramers pairing residual {residual:.3e} exceeds {tol}")
    return Frame(
        points=np.zeros((1, 0)),
        columns=phi.reshape((1, m_h, m)),
        flags={"smooth": None, "tau_equivariant": None, "tr_symmetric": True},
        diagnostics={"pairing_residual": residual},
    )


def _chern_precheck(family, grid):
    """Total Chern numbers on all coordinate 2-cycles; error if any is nonzero."""
    if family.dim < 2:
        return {}
    numbers = {}
    for mu, nu in combinations(range(family.dim), 2):
        if family.dim == 2:
            sub, subgrid = family, grid
        else:
            rest = [ax for ax in range(family.dim) if ax not in (mu, nu)]
            sub = family
            for ax in sorted(rest, reverse=True):
                sub = sub.restrict(ax, 0.0)
            sizes = tuple(grid.sizes[ax] for ax in (mu, nu))
            subgrid = sub.make_grid(sizes)
        numbers[(mu, nu)] = chern_number_plaquette(sub, subgrid).value
    if any(c != 0 for c in numbers.values()):
        pretty = {f"({mu + 1},{nu + 1})": c for (mu, nu), c in numbers.items()}
        raise ObstructionError(
            f"nonzero first Chern numbers obstruct a smooth periodic frame: {pretty}"
        )
    return numbers


def _spread_holonomy(frames, log_v):
    """Close a transported loop of n + 1 frames: frames[j] @ exp(-(j/n) log_v), j < n."""
    n = len(frames) - 1
    return np.stack([frames[j] @ expm(-(j / n) * log_v) for j in range(n)])


def _smooth_frame_1d(family, grid):
    n = grid.sizes[0]
    pts = grid.reduced
    path = np.vstack([pts, pts[:1] + 1.0])
    transported = parallel_transport(family, family.frames(pts[:1])[0], path)
    frames = transported.columns
    target = family.tau.matrix((1,)) @ frames[0]
    log_v = unitary_log(closest_unitary(target.conj().T @ frames[n]))
    out = _spread_holonomy(frames, log_v)
    closure = float(np.linalg.norm(frames[n] @ expm(-log_v) - target))
    deriv = float(np.max(np.abs(np.diff(out, axis=0)))) * n
    return Frame(
        points=pts,
        columns=out,
        flags={"smooth": True, "tau_equivariant": True, "tr_symmetric": None},
        diagnostics={
            "closure_residual": closure,
            "max_discrete_derivative": deriv,
            "transport_max_step": transported.diagnostics["max_step_distance"],
        },
        grid=grid,
    )


def _projection_gauge_frame(family, grid, seed, min_accept):
    pts = grid.reduced
    projs = family.projectors(pts)
    trials = [family.frames(pts[:1])[0]]
    m = trials[0].shape[1]
    rng = np.random.default_rng(seed)
    for _ in range(50):
        g = rng.standard_normal((family.fiber_dim, m)) + 1j * rng.standard_normal(
            (family.fiber_dim, m)
        )
        trials.append(np.linalg.qr(g)[0])
    best, best_sv = None, -1.0
    for trial in trials:
        y = np.einsum("kij,jm->kim", projs, trial)
        smin = float(np.min(np.linalg.svd(y, compute_uv=False)[:, -1]))
        if smin > best_sv:
            best, best_sv = trial, smin
        if smin >= 0.1:
            break
    if best_sv < min_accept:
        raise FrameConstructionError(
            f"no trial subspace stayed uniformly transversal (best minimum "
            f"singular value {best_sv:.3e}); the family may need a finer grid "
            f"or a different rank"
        )
    y = np.einsum("kij,jm->kim", projs, best)
    u, _, vh = np.linalg.svd(y, full_matrices=False)
    frames = np.einsum("kim,kmn->kin", u, vh)
    shaped = frames.reshape(grid.sizes + frames.shape[1:])
    deriv = 0.0
    for axis in range(family.dim):
        diff = np.roll(shaped, -1, axis=axis) - shaped
        deriv = max(deriv, float(np.max(np.abs(diff))) * grid.sizes[axis])
    return Frame(
        points=pts,
        columns=frames,
        flags={"smooth": True, "tau_equivariant": True, "tr_symmetric": None},
        diagnostics={"min_singular_value": best_sv, "max_discrete_derivative": deriv},
        grid=grid,
    )


def smooth_periodic_frame(family, grid, seed=0, min_accept=1e-3):
    """Globally smooth periodic frame on the grid, when no obstruction exists.

    The first Chern numbers on all coordinate 2-cycles are computed first
    and must vanish (they do whenever a time-reversal audit passes); any
    nonzero value raises an obstruction error quoting the integers. In one
    dimension the frame comes from parallel transport with the holonomy
    logarithm distributed evenly across the cell; in two and three
    dimensions from the polar gauge P(k) T of a fixed trial frame T
    validated to stay uniformly transversal.

    Plane-wave (nontrivial tau) sources are supported in one dimension.
    """
    gap_check(family, grid).require("smooth frame")
    if family.dim == 1:
        return _smooth_frame_1d(family, grid)
    if family.tau.kind != "trivial":
        raise FrameConstructionError(
            "smooth frames for plane-wave families are implemented in one dimension only"
        )
    if family.dim > 3:
        raise ValueError("smooth frames are implemented for dimensions 1..3")
    _chern_precheck(family, grid)
    return _projection_gauge_frame(family, grid, seed, min_accept)


@dataclass(frozen=True, eq=False)
class BoundaryUnitary:
    """det-winding data of U = Psi^dagger Phi_hat on the half-cell boundary."""

    points: np.ndarray
    unitaries: np.ndarray
    increments: np.ndarray
    winding: int
    unitarity_defect: float
    max_step_phase: float


@dataclass(frozen=True, eq=False)
class Z2Result:
    """A Z2 invariant with its integer certificate and diagnostics."""

    delta: int
    winding: int
    method: str
    residuals: dict = field(default_factory=dict)
    boundary: BoundaryUnitary = None
    flow: dict = None

    def to_json(self):
        return {
            "method": self.method,
            "delta": self.delta,
            "winding": self.winding,
            "diagnostics": {k: v for k, v in self.residuals.items()},
        }


def _check_z2_preconditions(family, grid):
    if family.dim != 2:
        raise ValueError("Z2 invariants are computed on two-dimensional families")
    theta = family.time_reversal
    if theta is None or theta.sign != -1:
        raise SymmetryError("Z2 invariants need a fermionic time reversal")
    report = gap_check(family, grid).require("Z2 invariant")
    if isinstance(family.source, HoppingModel):
        # a proof for every k, which P(k) inherits for any selection
        residual, worst = exact_symmetry_residuals(family.source, theta)["time_reversal"]
        if residual > 1e-9 * family.source.scale:
            raise SymmetryError(
                f"time reversal fails on the hopping data: sum over R of "
                f"||U conj(H_R) U^dagger - H_R|| is {residual:.3e}, largest at R={worst}"
            )
    else:
        audit = verify_projector_symmetries(family, grid)
        if not audit.verdicts.get("time_reversal"):
            raise SymmetryError(
                f"time-reversal audit failed: residual "
                f"{audit.residuals['time_reversal']:.3e} at k={audit.argmax['time_reversal']}"
            )
    if report.rank % 2:
        raise EvenRankError("fermionic family has odd selection rank")


def _boundary_loop_points(n1, n2):
    pts = []
    for i in range(n1 // 2):
        pts.append((i / n1, -0.5))
    for j in range(n2):
        pts.append((0.5, -0.5 + j / n2))
    for i in range(n1 // 2):
        pts.append((0.5 - i / n1, 0.5))
    for j in range(n2):
        pts.append((0.0, 0.5 - j / n2))
    return np.array(pts)


def _half_cell_flux(family, grid):
    """Trace Berry flux through the effective half-cell, by plaquette sums.

    Gauge invariant cell by cell, so honest frames at every grid point of
    [0,1/2] x [-1/2,1/2] are fine. Each plaquette angle is read on the
    principal branch, which is only safe while the per-plaquette flux stays
    well below pi; sharply peaked curvature (a nearly closed gap) can
    concentrate +-2pi into a single cell and silently shift the total. The
    sampling is therefore refined until every plaquette angle is small.
    """
    n1, n2 = grid.sizes
    for factor in (1, 2, 4, 8, 16, 32):
        shape = (factor * (n1 // 2) + 1, factor * n2 + 1)
        pts = np.array([(i / (factor * n1), -0.5 + j / (factor * n2))
                        for i, j in np.ndindex(shape)])
        f = family.frames(pts).reshape(shape + (family.fiber_dim, -1))
        angles, _ = plaquette_phases(f)
        if np.max(np.abs(angles)) < np.pi / 2:
            return float(np.sum(angles))
    raise RefinementError(
        f"half-cell plaquette flux still reaches {np.max(np.abs(angles)):.3f} "
        "after 32x refinement; the family is too singular for this estimate"
    )


def _extendable_log(holonomy, flux):
    """Branch of log(holonomy) that makes the closed transported frame
    extendable to the half-cell interior.

    The principal branch can be off by multiples of 2 pi in the trace, which
    would silently flip the winding parity whenever holonomy eigenvalues sit
    near -1 (they do at partner-switching points). The extendable branch is
    fixed by trace(log V) = -flux up to discretization error.
    """
    t_mat, q = schur(holonomy, output="complex")
    phases = np.angle(np.diag(t_mat))
    m = len(phases)
    shift = int(np.round((-flux - float(np.sum(phases))) / (2 * np.pi)))
    adjusted = phases + 2 * np.pi * (shift // m)
    rem = shift % m
    if rem:
        order = np.argsort(adjusted)
        adjusted[order[:rem]] += 2 * np.pi
    log_v = q @ np.diag(1j * adjusted) @ q.conj().T
    mismatch = float(np.sum(adjusted) + flux)
    return log_v, shift, mismatch


def z2_boundary_winding(family, grid, gauge_seed=None):
    """Z2 invariant from the boundary winding of det(Psi^dagger Phi_hat).

    Psi is a closed transported frame around the boundary of the effective
    half-cell (holonomy spread by its logarithm); Phi_hat interpolates
    Kramers frames at the four boundary TRIMs along the three lower
    segments and is extended to the rest of the boundary by the
    time-reversal and dual-shift identities. The winding of det(Psi^dagger
    Phi_hat), an integer, gives delta = winding mod 2.
    """
    _check_z2_preconditions(family, grid)
    theta = family.time_reversal
    n1, n2 = grid.sizes
    loop = _boundary_loop_points(n1, n2)
    n_loop = len(loop)

    start = family.frames(loop[:1])[0]
    m = start.shape[1]
    if gauge_seed is not None:
        rng = np.random.default_rng(gauge_seed)
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        start = start @ np.linalg.qr(g)[0]

    closed_path = np.vstack([loop, loop[:1]])
    transported = parallel_transport(family, start, closed_path)
    psi = transported.columns
    holonomy = closest_unitary(psi[0].conj().T @ psi[n_loop])
    flux = _half_cell_flux(family, grid)
    log_v, branch_shift, flux_mismatch = _extendable_log(holonomy, flux)
    if abs(flux_mismatch) > 1.0:
        raise RefinementError(
            f"holonomy/flux mismatch {flux_mismatch:.3f} is too large to "
            "trust the closure branch; refine the grid"
        )
    psi = _spread_holonomy(psi, log_v)

    trim_positions = {
        0: (0.0, -0.5),
        n1 // 2: (0.5, -0.5),
        n1 // 2 + n2 // 2: (0.5, 0.0),
        n1 + 3 * n2 // 2: (0.0, 0.0),
    }
    kramers = {}
    for pos, k_trim in trim_positions.items():
        theta_eff = effective_time_reversal(family, k_trim)
        kf = kramers_frame(family.projector(np.asarray(k_trim)), theta_eff)
        kramers[pos] = kf.single()

    match = {
        pos: closest_unitary(psi[pos].conj().T @ kramers[pos]) for pos in trim_positions
    }

    phi = np.empty_like(psi)
    segments = [
        (0, n1 // 2),
        (n1 // 2, n1 // 2 + n2 // 2),
        (n1 + 3 * n2 // 2, n_loop),
    ]
    for a, b in segments:
        geodesic = unitary_geodesic(match[a], match[b % n_loop], np.arange(b - a + 1) / (b - a))
        for j in range(a, b + 1):
            phi[j % n_loop] = psi[j % n_loop] @ geodesic[j - a]

    eps = reshuffle_matrix(m, -1)
    tau_b1 = family.tau.matrix((1, 0))
    tau_b2 = family.tau.matrix((0, 1))
    # upper right edge from the lower right edge via the F3 relation
    for j in range(1, n2 // 2 + 1):
        src = n1 // 2 + n2 // 2 - j
        tgt = n1 // 2 + n2 // 2 + j
        phi[tgt] = tau_b1 @ theta.apply(phi[src]) @ eps
    # top edge from the bottom edge via tau(b2)
    for i in range(1, n1 // 2):
        phi[n1 // 2 + n2 + i] = tau_b2 @ phi[n1 // 2 - i]
    # upper left edge from the lower left edge via the F3 relation
    for j in range(n2 // 2):
        src = (n1 + 2 * n2 - j) % n_loop
        tgt = n1 + n2 + j
        phi[tgt] = theta.apply(phi[src]) @ eps

    u_hat = np.einsum("kji,kjm->kim", psi.conj(), phi)
    eye = np.eye(m)
    defect = float(
        np.max(np.linalg.norm(np.einsum("kji,kjm->kim", u_hat.conj(), u_hat) - eye, axis=(1, 2)))
    )
    dets = np.linalg.det(u_hat)
    increments = np.angle(np.roll(dets, -1) / dets)
    max_step = float(np.max(np.abs(increments)))
    if max_step >= np.pi * (1 - 1e-9):
        raise RefinementError(
            f"boundary det phase step {max_step:.3f} reached pi; refine the grid"
        )
    raw = float(np.sum(increments) / (2 * np.pi))
    winding = int(np.round(raw))
    if abs(raw - winding) > 1e-6:
        raise RefinementError(
            f"boundary winding {raw:.8f} is not close to an integer; refine the grid"
        )
    boundary = BoundaryUnitary(
        points=loop,
        unitaries=u_hat,
        increments=increments,
        winding=winding,
        unitarity_defect=defect,
        max_step_phase=max_step,
    )
    return Z2Result(
        delta=winding % 2,
        winding=winding,
        method="boundary_winding",
        residuals={
            "unitarity_defect": defect,
            "max_step_phase": max_step,
            "winding_residual": abs(raw - winding),
            "transport_max_step": transported.diagnostics["max_step_distance"],
            "interior_flux": flux,
            "holonomy_branch_shift": branch_shift,
            "flux_mismatch": flux_mismatch,
        },
        boundary=boundary,
    )


def _wilson_phases(family, k2s, n1):
    """Sorted eigenphases of the unitarized k1 Wilson loop at each k2.

    One ``frames`` call serves all rows; a loop is the product of its links.
    """
    pts = np.array([(-0.5 + i / n1, k2) for i in range(n1) for k2 in k2s])
    f = family.frames(pts).reshape(n1, len(k2s), family.fiber_dim, -1)
    loop = links(tau_closed(family, f, 0), 0)
    w = loop[0]
    for link in loop[1:]:
        w = w @ link
    return np.sort(np.angle(np.linalg.eigvals(closest_unitary(w))), axis=-1)


def _circ_dist(a, b):
    d = np.mod(a - b + np.pi, 2 * np.pi) - np.pi
    return d


def _matching_steps(prev, nxt):
    """Phase steps that carry the tracked bands ``prev`` onto ``nxt``.

    ``nxt`` must be sorted. Row s of the shift table sends the i-th smallest
    wrapped ``prev`` to nxt[(i + s) % m]; the matching rule and its tie
    order are stated in ``z2_wilson_flow``.
    """
    m = len(prev)
    wrapped_prev = np.mod(prev + np.pi, 2 * np.pi) - np.pi
    shifts = np.arange(m)
    perms = np.empty((m, m), dtype=int)
    perms[:, np.argsort(wrapped_prev, kind="stable")] = (shifts[:, None] + shifts) % m
    steps = _circ_dist(nxt[perms], wrapped_prev)
    sizes = np.abs(steps)
    totals = np.sum(sizes, axis=1)
    tied = np.flatnonzero(totals <= np.min(totals) + 1e-9)
    # argmin keeps the first, i.e. the lowest, of equal shifts
    return steps[tied[np.argmin(np.max(sizes[tied], axis=1))]]


def z2_wilson_flow(family, grid):
    """Z2 invariant from Wilson-loop eigenphase flow across half a period.

    For each k2 from 0 to 1/2 the k1 Wilson loop is computed and unitarized;
    its eigenphases are tracked in k2 by proximity matching, and delta is
    the parity of the signed crossings of a reference phase line (pi, or
    the midpoint of the largest eigenphase gap at k2 = 0 if pi collides).

    Matching from one row to the next minimizes the total circular step
    sum |step| over assignments of tracked bands to new phases. Some cyclic
    shift of the sorted phases always attains that minimum (Karp & Li,
    Discrete Math. 13, 129 (1975)), so only the m shifts are scored, in
    O(m^2). Ties are broken in this order: every shift whose total is
    within 1e-9 of the smallest counts as tied; among those the smallest
    largest |step| wins, then the lowest shift. So when all bands move the
    same way, which many assignments tie on in exact arithmetic, the one
    with the smallest largest step is taken, not the one that rounding
    happens to favour. A row whose largest step is pi/2 or more is
    bisected in k2.
    """
    _check_z2_preconditions(family, grid)
    n1, n2 = grid.sizes
    rows = n2 // 2 + 1
    k2s = np.array([j / n2 for j in range(rows)])
    phases = _wilson_phases(family, k2s, n1)

    # the reference line must avoid the eigenphases at both end rows, where
    # the floor-based crossing count would be ill-conditioned
    ends = np.concatenate([phases[0], phases[-1]])
    ref = np.pi
    if float(np.min(np.abs(_circ_dist(ends, ref)))) < 1e-6:
        srt = np.sort(ends)
        gaps = np.diff(np.concatenate([srt, [srt[0] + 2 * np.pi]]))
        a = int(np.argmax(gaps))
        ref = float(np.mod(srt[a] + gaps[a] / 2 + np.pi, 2 * np.pi) - np.pi)

    max_step = 0.0
    aux_rows = 0

    def advance(prev, k2_lo, k2_hi, nxt, depth):
        # carry the unwrapped band values from k2_lo to k2_hi; when the
        # eigenphases move too fast for unambiguous proximity matching,
        # bisect in k2 (the Wilson loop is computable at any k2)
        nonlocal max_step, aux_rows
        steps = _matching_steps(prev, nxt)
        largest = float(np.max(np.abs(steps)))
        if largest < np.pi / 2:
            max_step = max(max_step, largest)
            return prev + steps
        if depth >= 12:
            raise RefinementError(
                f"Wilson eigenphase step {largest:.3f} near k2={k2_hi:.4f} "
                "stays ambiguous under bisection; the family is too rough "
                "for this grid"
            )
        k2_mid = 0.5 * (k2_lo + k2_hi)
        aux_rows += 1
        mid = advance(prev, k2_lo, k2_mid, _wilson_phases(family, [k2_mid], n1)[0], depth + 1)
        return advance(mid, k2_mid, k2_hi, nxt, depth + 1)

    tracked = np.empty_like(phases)
    tracked[0] = phases[0]
    for r in range(1, rows):
        tracked[r] = advance(tracked[r - 1], k2s[r - 1], k2s[r], phases[r], 0)

    turns = np.floor((tracked[[0, -1]] - ref) / (2 * np.pi))
    crossings = int(np.sum(turns[1] - turns[0]))
    delta = crossings % 2
    return Z2Result(
        delta=delta,
        winding=crossings,
        method="wilson_flow",
        residuals={
            "max_step_phase": max_step,
            "reference_phase": ref,
            "aux_rows": aux_rows,
        },
        flow={"k2": k2s, "phases": tracked},
    )


@dataclass(frozen=True, eq=False)
class Z23DResult:
    """The four 3D Z2 indices with the per-plane results behind them."""

    quadruple: tuple
    strong: int
    plane_results: dict
    consistent: bool

    def to_json(self):
        names = ("delta_1_0", "delta_1_plus", "delta_2_plus", "delta_3_plus")
        return {
            "indices": dict(zip(names, self.quadruple)),
            "strong": self.strong,
            "consistent": self.consistent,
            "planes": {
                f"k{axis + 1}={value}": res.to_json()
                for (axis, value), res in self.plane_results.items()
            },
        }


def z2_3d(family, grid):
    """The four Z2 indices of a 3D fermionic TR family from six planes.

    Each invariant plane k_j in {0, 1/2} is restricted to a 2D family and
    both 2D methods are run and must agree. The quadruple is
    (delta at k1=0, delta at k1=1/2, delta at k2=1/2, delta at k3=1/2); the
    strong index delta_{j,0} + delta_{j,+} mod 2 must not depend on j, which
    is checked across all six planes.
    """
    if family.dim != 3:
        raise ValueError("z2_3d needs a three-dimensional family")
    plane_results = {}
    for axis in range(3):
        for value in (0.0, -0.5):
            sub = family.restrict(axis, value)
            sizes = tuple(s for j, s in enumerate(grid.sizes) if j != axis)
            subgrid = sub.make_grid(sizes)
            winding = z2_boundary_winding(sub, subgrid)
            flow = z2_wilson_flow(sub, subgrid)
            if winding.delta != flow.delta:
                raise RefinementError(
                    f"Z2 methods disagree on plane k{axis + 1}={value}: "
                    f"boundary {winding.delta} vs flow {flow.delta}; refine the grid"
                )
            plane_results[(axis, value)] = winding
    strongs = {
        axis: (plane_results[(axis, 0.0)].delta + plane_results[(axis, -0.5)].delta) % 2
        for axis in range(3)
    }
    consistent = len(set(strongs.values())) == 1
    quadruple = (
        plane_results[(0, 0.0)].delta,
        plane_results[(0, -0.5)].delta,
        plane_results[(1, -0.5)].delta,
        plane_results[(2, -0.5)].delta,
    )
    return Z23DResult(
        quadruple=quadruple,
        strong=strongs[0],
        plane_results=plane_results,
        consistent=consistent,
    )

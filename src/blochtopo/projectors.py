"""Spectral projector families P(k) over the Brillouin zone.

A ProjectorFamily bundles an evaluator k -> H(k) with a band selection and
the symmetry operators the family inherits from its source (tight-binding
model or plane-wave potential). Everything downstream (curvature, Chern
numbers, Z2 invariants, Wannier frames) consumes this interface.

Projectors come from two independent paths: the eigensolver sum over the
selected eigenvectors, and the Riesz contour integral with trapezoidal
quadrature. The two agree to quadrature accuracy whenever the contour
cleanly encloses the selected part of the spectrum, which the tests use as
a cross-check.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import KPoint, Lattice, TauRep, make_grid
from .errors import AmbiguousSelectionError, ContourCollisionError, GaplessError
from .floquet import potential_matrix
from .linalg import operator_norm
from .models import bloch_hamiltonian_batch

__all__ = [
    "BandSelection",
    "EllipseContour",
    "GapReport",
    "ProjectorFamily",
    "ProjectorAudit",
    "SmoothnessReport",
    "spectral_projector",
    "riesz_projector",
    "default_contour",
    "gap_check",
    "verify_projector_symmetries",
    "smoothness_probe",
]

_SEPARATION_TOL = 1e-10


@dataclass(frozen=True)
class BandSelection:
    """Which part of the spectrum belongs to the family.

    mode "index_window": the contiguous eigenvalue indices
    start .. start+count-1 (ascending order). mode "energy_window": all
    eigenvalues inside [energy_low, energy_high].
    """

    mode: str
    start: int = 0
    count: int = 0
    energy_low: float = 0.0
    energy_high: float = 0.0

    def __post_init__(self):
        if self.mode == "index_window":
            if self.count < 1 or self.start < 0:
                raise ValueError("index window must select at least one band")
        elif self.mode == "energy_window":
            if not self.energy_high > self.energy_low:
                raise ValueError("energy window must be a nonempty interval")
        else:
            raise ValueError(f"unknown selection mode {self.mode!r}")

    @classmethod
    def lowest(cls, count):
        return cls(mode="index_window", start=0, count=int(count))

    @classmethod
    def index_window(cls, start, count):
        return cls(mode="index_window", start=int(start), count=int(count))

    @classmethod
    def energy_window(cls, low, high):
        return cls(mode="energy_window", energy_low=float(low), energy_high=float(high))

    def separation(self, evals):
        """(selected indices, distance to the complement); never raises.

        The distance is +inf when the selection exhausts the spectrum.
        """
        evals = np.asarray(evals, dtype=float)
        n = evals.shape[0]
        if self.mode == "index_window":
            if self.start + self.count > n:
                raise self._window_error(n)
            idx = np.arange(self.start, self.start + self.count)
        else:
            idx = np.nonzero((evals >= self.energy_low) & (evals <= self.energy_high))[0]
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        if not mask.any() or mask.all():
            return idx, np.inf
        sep = float(np.min(np.abs(evals[mask][:, None] - evals[~mask][None, :])))
        return idx, sep

    def _window_error(self, n):
        return ValueError(
            f"index window {self.start}..{self.start + self.count - 1} "
            f"exceeds the {n} available bands"
        )

    def separations(self, evals):
        """``separation`` over an (npts, n) stack of ascending rows, batched.

        Returns (lo, hi, sep): row i selects evals[i, lo[i]:hi[i]] and sep[i]
        equals ``separation(evals[i])[1]`` bit for bit. Sorted rows make the
        selection contiguous, and float subtraction is monotone, so the
        pairwise minimum is attained at one of the two window boundaries.
        """
        evals = np.asarray(evals, dtype=float)
        npts, n = evals.shape
        if self.mode == "index_window":
            if self.start + self.count > n:
                raise self._window_error(n)
            lo = np.full(npts, self.start)
            hi = lo + self.count
        else:
            lo = np.count_nonzero(evals < self.energy_low, axis=1)
            hi = np.count_nonzero(evals <= self.energy_high, axis=1)
        # gaps[:, j] = |e_j - e_(j-1)|, +inf past either end of the spectrum
        gaps = np.full((npts, n + 1), np.inf)
        gaps[:, 1:-1] = np.abs(evals[:, 1:] - evals[:, :-1])
        rows = np.arange(npts)
        sep = np.where(hi > lo, np.minimum(gaps[rows, lo], gaps[rows, hi]), np.inf)
        return lo, hi, sep

    def select(self, evals):
        """Selected indices; errors when the window boundary splits a cluster."""
        idx, sep = self.separation(evals)
        if idx.size == 0:
            raise AmbiguousSelectionError("energy window selects no eigenvalue")
        if sep <= _SEPARATION_TOL:
            raise AmbiguousSelectionError(
                f"selection boundary falls inside a degenerate cluster "
                f"(separation {sep:.3e})"
            )
        return idx


def spectral_projector(h, selection):
    """Sum of |u><u| over the selected eigenvectors of a Hermitian matrix."""
    evals, evecs = np.linalg.eigh(h)
    idx = selection.select(evals)
    v = evecs[:, idx]
    return v @ v.conj().T


@dataclass(frozen=True)
class EllipseContour:
    """Counterclockwise ellipse t -> center + rx cos t + i ry sin t."""

    center: complex
    radius_real: float
    radius_imag: float

    def points(self, nodes):
        t = 2 * np.pi * np.arange(nodes) / nodes
        z = self.center + self.radius_real * np.cos(t) + 1j * self.radius_imag * np.sin(t)
        dz = -self.radius_real * np.sin(t) + 1j * self.radius_imag * np.cos(t)
        return z, dz

    def encloses(self, x):
        u = (np.real(x) - np.real(self.center)) / self.radius_real
        v = (np.imag(x) - np.imag(self.center)) / self.radius_imag
        return u * u + v * v < 1.0

    def distance_to(self, evals, samples=4096):
        z, _ = self.points(samples)
        return float(np.min(np.abs(np.asarray(evals)[:, None] - z[None, :])))


def default_contour(evals, selection):
    """Ellipse around the selected eigenvalues with margins set by the gap.

    Semi-axes are (window half-width + gap/2, gap/4), so the contour passes
    mid-gap on the real axis and stays clear of the spectrum.
    """
    evals = np.asarray(evals, dtype=float)
    idx = selection.select(evals)
    _, sep = selection.separation(evals)
    lo, hi = float(evals[idx].min()), float(evals[idx].max())
    if not np.isfinite(sep):
        sep = max(1.0, hi - lo)
    center = 0.5 * (lo + hi)
    return EllipseContour(
        center=complex(center),
        radius_real=0.5 * (hi - lo) + 0.5 * sep,
        radius_imag=0.25 * sep,
    )


def riesz_projector(h, contour=None, nodes=64, selection=None):
    """Contour-integral projector (1/2 pi i) oint (z - H)^{-1} dz.

    Trapezoidal quadrature with the given node count; the parametrization is
    periodic and the integrand analytic, so the error decays geometrically
    in ``nodes``. Either a contour or a selection (from which the default
    contour is built) must be supplied.
    """
    h = np.asarray(h, dtype=complex)
    evals = np.linalg.eigvalsh(h)
    if contour is None:
        if selection is None:
            raise ValueError("riesz_projector needs a contour or a selection")
        contour = default_contour(evals, selection)
    dist = contour.distance_to(evals)
    if dist < 1e-6:
        raise ContourCollisionError(
            f"an eigenvalue lies within {dist:.3e} of the contour"
        )
    if selection is not None:
        idx = selection.select(evals)
        inside = contour.encloses(evals)
        want = np.zeros(len(evals), dtype=bool)
        want[idx] = True
        if not np.array_equal(inside, want):
            raise ContourCollisionError(
                "contour does not enclose exactly the selected eigenvalues"
            )
    z, dz = contour.points(nodes)
    m = h.shape[0]
    acc = np.zeros((m, m), dtype=complex)
    eye = np.eye(m)
    for zj, dzj in zip(z, dz):
        acc += dzj * np.linalg.solve(zj * eye - h, eye)
    p = acc / (1j * nodes)
    return 0.5 * (p + p.conj().T)


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """A band family: evaluator, selection, and inherited symmetries.

    ``evaluator`` maps an (npts, dim) array of reduced momenta to the
    (npts, m_H, m_H) stack of fiber Hamiltonians. Tight-binding evaluators
    fold momenta to the canonical cell (periodic gauge); plane-wave ones
    evaluate honestly, with dual-lattice shifts represented by ``tau``.
    """

    dim: int
    fiber_dim: int
    selection: BandSelection
    evaluator: object
    tau: TauRep
    lattice: Lattice = None
    time_reversal: object = None
    space_reflection: object = None
    dropped_symmetries: tuple = ()
    source: object = field(default=None, repr=False)

    @classmethod
    def from_model(cls, model, selection=None):
        if selection is None:
            selection = BandSelection.lowest(model.n_occ)

        def evaluator(points):
            return bloch_hamiltonian_batch(model, points)

        return cls(
            dim=model.lattice.dim,
            fiber_dim=model.fiber_dim,
            selection=selection,
            evaluator=evaluator,
            tau=model.tau,
            lattice=model.lattice,
            time_reversal=model.time_reversal,
            space_reflection=model.space_reflection,
            source=model,
        )

    @classmethod
    def from_potential(cls, potential, basis, selection):
        from .floquet import fiber_symmetry_ops

        ops = fiber_symmetry_ops(basis)
        vmat = potential_matrix(potential, basis)
        g_cart = basis.g_cart
        lattice = basis.lattice

        def evaluator(points):
            out = np.empty((len(points), basis.n_modes, basis.n_modes), dtype=complex)
            for i, p in enumerate(points):
                shifted = g_cart + lattice.kcart(np.asarray(p, dtype=float))
                out[i] = vmat
                out[i][np.diag_indices(basis.n_modes)] += 0.5 * np.einsum(
                    "ij,ij->i", shifted, shifted
                )
            return out

        return cls(
            dim=lattice.dim,
            fiber_dim=basis.n_modes,
            selection=selection,
            evaluator=evaluator,
            tau=ops.tau,
            lattice=lattice,
            time_reversal=ops.theta,
            space_reflection=ops.reflection if potential.is_even() else None,
            source=(potential, basis),
        )

    def _points(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {pts.shape[1]}")
        return pts

    def hamiltonians(self, points):
        return self.evaluator(self._points(points))

    def eigensystems(self, points):
        return np.linalg.eigh(self.hamiltonians(points))

    def projectors(self, points, strict=True):
        """Stack of P(k) over the given reduced momenta.

        strict=True errors when the selection boundary splits a degenerate
        cluster at any point; audits pass strict=False and report instead.
        """
        evals, evecs = self.eigensystems(points)
        if self.selection.mode == "index_window":
            lo = self.selection.start
            hi = lo + self.selection.count
            if strict:
                self._require_separated(evals)
            v = evecs[:, :, lo:hi]
            return np.einsum("kim,kjm->kij", v, v.conj())
        out = np.zeros_like(evecs)
        for i, (row, vec) in enumerate(zip(evals, evecs)):
            idx = self.selection.select(row) if strict else self.selection.separation(row)[0]
            v = vec[:, idx]
            out[i] = v @ v.conj().T
        return out

    def frames(self, points):
        """Eigenvector frames spanning the selected space (gauge arbitrary)."""
        evals, evecs = self.eigensystems(points)
        lo, hi = self._require_separated(evals)
        ranks = set((hi - lo).tolist())
        if len(ranks) != 1:
            raise GaplessError(f"selection rank varies over the points: {sorted(ranks)}")
        # gathered as (npts, rank, m_H) and swapped back: each point's frame is
        # column-major, the layout a stack of per-point vec[:, idx] copies has
        cols = lo[:, None] + np.arange(hi[0] - lo[0])
        return evecs.swapaxes(1, 2)[np.arange(len(lo))[:, None], cols].swapaxes(1, 2)

    def _require_separated(self, evals):
        """(lo, hi) per row; on failure ``select`` raises at the first bad row."""
        lo, hi, sep = self.selection.separations(evals)
        if np.any((hi == lo) | (sep <= _SEPARATION_TOL)):
            for row in evals:
                self.selection.select(row)
        return lo, hi

    def projector(self, k):
        red = np.asarray(k.reduced if isinstance(k, KPoint) else k, dtype=float)
        return self.projectors(red.reshape(1, -1))[0]

    def make_grid(self, sizes):
        """Negation-closed grid matching this family's dimension.

        Restricted families carry no lattice; a formal unit lattice stands in,
        which is fine because every grid consumer here works in reduced
        coordinates.
        """
        lattice = self.lattice
        if lattice is None:
            lattice = Lattice.from_basis(np.eye(self.dim))
        return make_grid(lattice, sizes)

    def restrict(self, axis, value):
        """Freeze one reduced coordinate; returns a (dim-1) family.

        Time reversal and space reflection carry over only when the frozen
        plane is mapped to itself exactly: 2*value must be an integer and the
        tau action trivial (the plane-wave mode shift does not restrict to a
        unitary on the truncated basis). Anything dropped is recorded.
        """
        if self.dim < 2:
            raise ValueError("cannot restrict a one-dimensional family")
        axis = int(axis)
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        value = float(value)
        parent = self.evaluator

        def evaluator(points):
            pts = np.asarray(points, dtype=float)
            full = np.insert(pts, axis, value, axis=1)
            return parent(full)

        exact_plane = abs(2 * value - round(2 * value)) < 1e-12 and self.tau.kind == "trivial"
        dropped = ()
        tr, sr = self.time_reversal, self.space_reflection
        if not exact_plane:
            dropped = tuple(
                name
                for name, op in (("time_reversal", tr), ("space_reflection", sr))
                if op is not None
            )
            tr = sr = None
        return ProjectorFamily(
            dim=self.dim - 1,
            fiber_dim=self.fiber_dim,
            selection=self.selection,
            evaluator=evaluator,
            tau=TauRep(kind="trivial", fiber_dim=self.fiber_dim),
            lattice=None,
            time_reversal=tr,
            space_reflection=sr,
            dropped_symmetries=dropped,
            source=self.source,
        )


@dataclass(frozen=True)
class GapReport:
    """Minimum selected-to-complement spectral distance over a grid."""

    min_gap: float
    argmin: tuple
    gapless: bool
    threshold: float
    rank_constant: bool
    rank: int  # at the first grid point, so everywhere when rank_constant; not in to_json

    def to_json(self):
        return {
            "min_gap": self.min_gap,
            "argmin": list(self.argmin),
            "gapless": self.gapless,
            "threshold": self.threshold,
            "rank_constant": self.rank_constant,
        }

    def require(self, what):
        """This report, or GaplessError naming ``what`` when the verdict is gapless."""
        if self.gapless:
            raise GaplessError(
                f"{what} needs the gap condition; minimum separation "
                f"{self.min_gap:.3e} at k={self.argmin} is below threshold "
                f"{self.threshold:.3e}"
            )
        return self


def gap_check(family, grid, threshold=None):
    """Distance between the selected bands and the rest, minimized over the grid.

    The verdict is gapless when the minimum drops below the threshold
    (default 1e-8 times the spectral scale) or when the selection rank is
    not constant over the grid. The argmin is the first grid point (in grid
    order) attaining the minimum.
    """
    pts = grid.reduced
    evals, _ = family.eigensystems(pts)
    scale = max(1.0, float(np.max(np.abs(evals))))
    if threshold is None:
        threshold = 1e-8 * scale
    lo, hi, seps = family.selection.separations(evals)
    ranks = hi - lo
    imin = int(np.argmin(seps))
    rank_constant = bool(np.all(ranks == ranks[0]))
    min_gap = float(seps[imin])
    return GapReport(
        min_gap=min_gap,
        argmin=tuple(float(x) for x in pts[imin]),
        gapless=bool(min_gap < threshold or not rank_constant),
        threshold=float(threshold),
        rank_constant=rank_constant,
        rank=int(ranks[0]),
    )


@dataclass(frozen=True)
class ProjectorAudit:
    """Residuals and verdicts for the projector-family symmetry relations."""

    residuals: dict
    argmax: dict
    verdicts: dict
    even_rank_violation: bool
    tolerance: float

    def to_json(self):
        return {
            "residuals": {k: v for k, v in self.residuals.items()},
            "argmax": {k: list(v) if v is not None else None for k, v in self.argmax.items()},
            "verdicts": dict(self.verdicts),
            "even_rank_violation": self.even_rank_violation,
            "tolerance": self.tolerance,
        }


def verify_projector_symmetries(family, grid, tol=1e-9):
    """Audit tau covariance, TR/SR conjugation, trace parity, Kramers pairing.

    All residuals are maxima over the grid (sup operator norm); each comes
    with the reduced momentum attaining it. Relations whose operator the
    family does not carry get verdict None. A fermionic time reversal with
    odd selection rank is flagged, not raised.
    """
    if grid.dim != family.dim:
        raise ValueError("grid dimension does not match the family")
    pts = grid.reduced
    projs = family.projectors(pts, strict=False)
    # honest evaluation at -k: the grid fold k -> canonical(-k) is only valid
    # for periodic (trivial-tau) families, so negate without folding
    negated = None
    if family.time_reversal is not None or family.space_reflection is not None:
        negated = family.projectors(-pts, strict=False)
    residuals, argmax, verdicts = {}, {}, {}

    def record(name, values):
        i = int(np.argmax(values))
        residuals[name] = float(values[i])
        argmax[name] = tuple(float(x) for x in pts[i])
        verdicts[name] = bool(values[i] < tol)

    # tau covariance against honest evaluation at k + b_j
    tau_vals = np.zeros(len(pts))
    for axis in range(family.dim):
        lam = np.zeros(family.dim, dtype=int)
        lam[axis] = 1
        shifted = family.projectors(pts + lam, strict=False)
        tmat = family.tau.matrix(lam)
        kept = family.tau.retained(lam)
        conj = np.einsum("ij,kjl,ml->kim", tmat, projs, tmat.conj())
        diff = (conj - shifted)[:, kept][:, :, kept]
        tau_vals = np.maximum(tau_vals, operator_norm(diff))
    record("tau_covariance", tau_vals)

    tr = family.time_reversal
    if tr is not None:
        conj = np.einsum("ij,kjl,ml->kim", tr.unitary, projs.conj(), tr.unitary.conj())
        record("time_reversal", operator_norm(conj - negated))
        trace_diff = np.abs(np.trace(projs, axis1=1, axis2=2) - np.trace(negated, axis1=1, axis2=2))
        record("trace_parity", trace_diff)
    else:
        residuals["time_reversal"] = None
        argmax["time_reversal"] = None
        verdicts["time_reversal"] = None

    sr = family.space_reflection
    if sr is not None:
        conj = np.einsum("ij,kjl,ml->kim", sr.unitary, projs, sr.unitary.conj())
        record("space_reflection", operator_norm(conj - negated))
    else:
        residuals["space_reflection"] = None
        argmax["space_reflection"] = None
        verdicts["space_reflection"] = None

    even_rank_violation = False
    if tr is not None and tr.sign == -1:
        ranks = np.round(np.real(np.trace(projs, axis1=1, axis2=2))).astype(int)
        even_rank_violation = bool(np.any(ranks % 2 != 0))
        trim_idx = grid.trim_flat_indices
        worst = 0.0
        worst_k = None
        for i in trim_idx:
            evals = np.linalg.eigvalsh(family.hamiltonians(pts[i].reshape(1, -1))[0])
            pairgap = float(np.max(np.abs(evals[0::2] - evals[1::2])))
            if worst_k is None or pairgap > worst:
                worst, worst_k = pairgap, tuple(float(x) for x in pts[i])
        residuals["kramers_pairing"] = worst
        argmax["kramers_pairing"] = worst_k
        verdicts["kramers_pairing"] = bool(worst < max(tol, 1e-10))
    else:
        residuals["kramers_pairing"] = None
        argmax["kramers_pairing"] = None
        verdicts["kramers_pairing"] = None

    return ProjectorAudit(
        residuals=residuals,
        argmax=argmax,
        verdicts=verdicts,
        even_rank_violation=even_rank_violation,
        tolerance=float(tol),
    )


@dataclass(frozen=True)
class SmoothnessReport:
    """Finite-difference quotients of P(k) at two grid resolutions."""

    coarse: tuple
    fine: tuple
    ratios: tuple
    resolved: bool
    coarse_sizes: tuple
    fine_sizes: tuple

    def to_json(self):
        return {
            "coarse": list(self.coarse),
            "fine": list(self.fine),
            "ratios": list(self.ratios),
            "resolved": self.resolved,
            "coarse_sizes": list(self.coarse_sizes),
            "fine_sizes": list(self.fine_sizes),
        }


def _difference_quotients(family, grid):
    pts = grid.reduced
    projs = family.projectors(pts)
    out = []
    for axis in range(family.dim):
        delta = 1.0 / grid.sizes[axis]
        step = np.zeros(family.dim)
        step[axis] = delta
        shifted = family.projectors(pts + step)
        out.append(float(np.max(operator_norm(shifted - projs))) / delta)
    return tuple(out)


def smoothness_probe(family, grid, refine=2):
    """Max per-axis difference quotients of P at the grid and a refined grid.

    Refuses on families that fail the gap condition on the coarse grid; a
    quotient ratio well above 1 between the two resolutions means the family
    is not resolved (typically a near-closing gap).
    """
    gap_check(family, grid).require("smoothness probe")
    fine_grid = make_grid(grid.lattice, tuple(refine * n for n in grid.sizes))
    coarse = _difference_quotients(family, grid)
    fine = _difference_quotients(family, fine_grid)
    ratios = tuple(f / c if c > 0 else 1.0 for c, f in zip(coarse, fine))
    return SmoothnessReport(
        coarse=coarse,
        fine=fine,
        ratios=ratios,
        resolved=bool(all(r < 1.5 for r in ratios)),
        coarse_sizes=grid.sizes,
        fine_sizes=fine_grid.sizes,
    )

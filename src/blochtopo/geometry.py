"""Berry curvature and first Chern numbers of projector families.

Two independent integration methods are provided on purpose. The
finite-difference method discretizes the curvature trace formula

    Omega_{mu nu}(k) = Im tr( P(k) [d_mu P(k), d_nu P(k)] )

with central differences, and integrates it over the reduced-coordinate
torus. The plaquette method accumulates the phases of frame-overlap
determinant loops around grid plaquettes; with the periodic (tau-twisted)
identification of the wraparound row and column its total is an integer
multiple of 2 pi by construction; its links F_j^dagger F_{j+1} come from
``linalg.links``, shared with the half-cell flux and the Wilson loops.
Agreement of the two is a strong correctness check and is part of the
acceptance suite.

Both methods work in reduced coordinates, so a "unit" of curvature pairs
with the unit cell [-1/2,1/2)^2 and C = (1/2 pi) sum Omega / (N1 N2).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import RefinementError
from .linalg import links
from .projectors import gap_check

__all__ = [
    "CurvatureField",
    "ChernResult",
    "berry_curvature",
    "chern_number_curvature",
    "chern_number_plaquette",
    "curvature_parity",
    "export_curvature_csv",
    "plaquette_phases",
    "tau_closed",
]


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """Curvature samples Omega_{mu nu}(k) over a grid, one ordered axis pair.

    values are real, in flat grid order, dimensionless per reduced-coordinate
    area. discarded_real records the largest real part of tr P[dP,dP] that
    was dropped (the trace is purely imaginary up to round-off).
    """

    grid: object
    pair: tuple
    values: np.ndarray
    step: tuple
    method: str
    discarded_real: float

    def shaped(self):
        return self.values.reshape(self.grid.sizes)


@dataclass(frozen=True)
class ChernResult:
    """Integer first Chern number with its pre-rounding value."""

    value: int
    raw: float
    residual: float
    method: str
    unconverged: bool
    diagnostics: dict

    def to_json(self):
        return {
            "value": self.value,
            "raw": self.raw,
            "residual": self.residual,
            "method": self.method,
            "unconverged": self.unconverged,
            "diagnostics": dict(self.diagnostics),
        }


def berry_curvature(family, grid, pair=(0, 1), step=None):
    """Finite-difference curvature field for one ordered axis pair.

    step is the central-difference offset per axis of the pair; the default
    is half the grid spacing, and values above that are rejected so the
    stencil stays inside neighboring cells.
    """
    mu, nu = pair
    if mu == nu:
        raise ValueError("curvature needs two distinct axes")
    gap_check(family, grid).require("curvature")
    if step is None:
        step = (grid.spacing[mu] / 2, grid.spacing[nu] / 2)
    step = (float(step[0]), float(step[1]))
    if step[0] > grid.spacing[mu] / 2 + 1e-15 or step[1] > grid.spacing[nu] / 2 + 1e-15:
        raise ValueError("difference step must not exceed half the grid spacing")
    pts = grid.reduced
    projs = family.projectors(pts)
    derivs = []
    for axis, delta in zip((mu, nu), step):
        offset = np.zeros(grid.dim)
        offset[axis] = delta
        plus = family.projectors(pts + offset)
        minus = family.projectors(pts - offset)
        derivs.append((plus - minus) / (2 * delta))
    dmu, dnu = derivs
    forward = np.einsum("kij,kjl,kli->k", projs, dmu, dnu)
    backward = np.einsum("kij,kjl,kli->k", projs, dnu, dmu)
    trace = forward - backward
    return CurvatureField(
        grid=grid,
        pair=(mu, nu),
        values=np.imag(trace),
        step=step,
        method="finite_difference",
        discarded_real=float(np.max(np.abs(np.real(trace)))),
    )


def chern_number_curvature(field):
    """Integrate a 2D curvature field into a Chern number.

    raw = (1/2 pi) mean-cell sum; the nearest integer is accepted only when
    the rounding residual is below 1e-3, otherwise the result is flagged
    unconverged (never silently rounded).
    """
    grid = field.grid
    if grid.dim != 2:
        raise ValueError(
            "integration needs a two-dimensional field; restrict the family "
            "to a plane first"
        )
    cell = 1.0 / grid.npoints
    raw = float(np.sum(field.values) * cell / (2 * np.pi))
    value = int(np.round(raw))
    residual = abs(raw - value)
    return ChernResult(
        value=value,
        raw=raw,
        residual=residual,
        method=field.method,
        unconverged=bool(residual >= 1e-3),
        diagnostics={"discarded_real": field.discarded_real, "step": list(field.step)},
    )


def tau_closed(family, frames, axis):
    """Frames with the wraparound slice at k + b_axis appended along ``axis``.

    The leading axes of ``frames`` index momenta along the family's axes. The
    appended slice reuses the first one as tau(b_axis) F, which closes a
    wraparound row, column or Wilson loop exactly for periodic families.
    """
    shift = family.tau.matrix(np.eye(family.dim, dtype=int)[axis])
    return np.concatenate([frames, shift @ np.take(frames, [0], axis=axis)], axis=axis)


def plaquette_phases(corners):
    """Plaquette phases of an (n1 + 1, n2 + 1, m_H, m) patch of frames.

    Returns the (n1, n2) principal-branch phases of det M1(i, j) det
    M2(i+1, j) conj(det M1(i, j+1) det M2(i, j)), with M1 and M2 the links
    along axes 0 and 1, and the smallest |det| of any link.
    """
    d1 = np.linalg.det(links(corners, 0))
    d2 = np.linalg.det(links(corners, 1))
    loops = d1[:, :-1] * d2[1:, :] * np.conj(d1[:, 1:]) * np.conj(d2[:-1, :])
    smallest = min(float(np.min(np.abs(d1))), float(np.min(np.abs(d2))))
    return np.angle(loops), smallest


def chern_number_plaquette(family, grid):
    """Gauge-invariant plaquette (link-overlap) Chern number on a 2D grid.

    Each plaquette contributes the principal-branch phase of the loop of
    normalized overlap determinants around its four corners; the total over
    the torus is 2 pi times an integer. Plaquette phases above pi/2 flag
    under-resolution; an overlap determinant below 1e-8 means the frames
    decorrelated across one step and the grid must be refined.
    """
    if grid.dim != 2:
        raise ValueError("plaquette method needs a two-dimensional grid")
    if min(grid.sizes) < 8:
        raise ValueError("plaquette method needs at least 8 points per axis")
    gap_check(family, grid).require("plaquette Chern number")
    # the tau-identified wraparound row and column make the total a multiple of 2 pi
    ext = family.frames(grid.reduced).reshape(grid.sizes + (family.fiber_dim, -1))
    phases, smallest = plaquette_phases(tau_closed(family, tau_closed(family, ext, 0), 1))
    if smallest < 1e-8:
        raise RefinementError(
            f"frame overlap determinant collapsed to {smallest:.3e}; refine the grid"
        )
    total = float(np.sum(phases))
    raw = total / (2 * np.pi)
    value = int(np.round(raw))
    residual = abs(raw - value)
    max_phase = float(np.max(np.abs(phases)))
    return ChernResult(
        value=value,
        raw=raw,
        residual=residual,
        method="plaquette",
        unconverged=bool(residual >= 1e-3 or max_phase > np.pi / 2),
        diagnostics={
            "max_plaquette_phase": max_phase,
            "min_overlap_det": smallest,
            "under_resolved": bool(max_phase > np.pi / 2),
        },
    )


def curvature_parity(family, grid, pair=(0, 1)):
    """Oddness and evenness residuals of the curvature under k -> -k.

    Time reversal makes the curvature odd, space reflection makes it even,
    and both together force it to vanish; the two residuals diagnose which
    case holds. Computed from a single field evaluation.
    """
    field = berry_curvature(family, grid, pair=pair)
    neg = grid.negation_permutation
    odd = float(np.max(np.abs(field.values[neg] + field.values)))
    even = float(np.max(np.abs(field.values[neg] - field.values)))
    return {
        "odd_residual": odd,
        "even_residual": even,
        "max_abs": float(np.max(np.abs(field.values))),
    }


def export_curvature_csv(field, path):
    """CSV with reduced coordinates and the curvature value, in grid order."""
    pts = field.grid.reduced
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"k{j + 1}" for j in range(field.grid.dim)] + ["omega"])
        for row, omega in zip(pts, field.values):
            writer.writerow([repr(float(x)) for x in row] + [repr(float(omega))])

"""Lattices, momentum grids, and fiber symmetry operators.

Reduced coordinates (components of k in the dual basis) are the internal
currency everywhere; Cartesian momenta are derived views. Canonical reduced
coordinates live in [-1/2, 1/2) with 1/2 folded to -1/2. Momentum grids are
uniform n/N meshes stored as integer index arrays so the k -> -k map and
TRIM membership are exact integer statements.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegenerateLatticeError, EvenRankError, GridParityError, SymmetryError

__all__ = [
    "Lattice",
    "KPoint",
    "BrillouinGrid",
    "TauRep",
    "TimeReversal",
    "SpaceReflection",
    "dual_lattice",
    "trim_points",
    "make_grid",
    "canonical_reduced",
    "reshuffle_matrix",
]


def dual_lattice(basis):
    """Dual basis vectors (columns) satisfying b_i . a_j = 2 pi delta_ij.

    Parameters
    ----------
    basis : (d, d) array
        Direct basis vectors as columns.

    Raises
    ------
    DegenerateLatticeError
        If the basis is singular or nearly so.
    """
    basis = np.asarray(basis, dtype=float)
    d = basis.shape[0]
    if basis.shape != (d, d):
        raise DegenerateLatticeError(f"basis must be square, got {basis.shape}")
    scale = max(np.max(np.linalg.norm(basis, axis=0)), 1e-300)
    det = np.linalg.det(basis)
    if abs(det) <= 1e-12 * scale**d:
        raise DegenerateLatticeError(f"basis is numerically singular (det = {det:.3e})")
    return 2.0 * np.pi * np.linalg.inv(basis).T


@dataclass(frozen=True, eq=False)
class Lattice:
    """A Bravais lattice together with its dual.

    basis and dual hold the direct and dual vectors as columns;
    b_i . a_j = 2 pi delta_ij is validated on construction.
    """

    basis: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "dual", np.asarray(self.dual, dtype=float))
        gram = self.dual.T @ self.basis
        target = 2.0 * np.pi * np.eye(self.dim)
        if np.max(np.abs(gram - target)) > 1e-12 * 2.0 * np.pi * max(1.0, np.max(np.abs(gram))):
            raise DegenerateLatticeError("dual basis does not satisfy b_i . a_j = 2 pi delta_ij")

    @classmethod
    def from_basis(cls, basis):
        basis = np.asarray(basis, dtype=float)
        return cls(basis=basis, dual=dual_lattice(basis))

    @property
    def dim(self):
        return self.basis.shape[0]

    def kcart(self, reduced):
        """Cartesian momentum for reduced coordinates (single point or batch)."""
        reduced = np.asarray(reduced, dtype=float)
        return reduced @ self.dual.T


def canonical_reduced(reduced):
    """Fold reduced coordinates into [-1/2, 1/2), with +1/2 sent to -1/2."""
    reduced = np.asarray(reduced, dtype=float)
    folded = np.mod(reduced + 0.5, 1.0) - 0.5
    # mod can return exactly 1.0 - eps artifacts; +0.0 normalizes signed zeros
    return folded + 0.0


@dataclass(frozen=True)
class KPoint:
    """A momentum stored by its reduced coordinates."""

    reduced: tuple

    def __init__(self, reduced):
        object.__setattr__(self, "reduced", tuple(float(x) for x in np.atleast_1d(reduced)))

    @property
    def dim(self):
        return len(self.reduced)

    def canonical(self):
        return KPoint(canonical_reduced(self.reduced))

    def negate(self):
        """Canonical representative of -k."""
        return KPoint(canonical_reduced([-x for x in self.reduced]))


def trim_points(lattice):
    """The 2^d time-reversal invariant momenta lambda/2 mod Gamma*.

    Returned as canonical KPoints (coordinates in {0, -1/2}), in lexicographic
    order of the half-integer pattern with 0 before 1/2.
    """
    d = lattice.dim
    pts = []
    for pattern in product((0.0, 0.5), repeat=d):
        pts.append(KPoint(canonical_reduced(pattern)))
    return pts


@dataclass(frozen=True, eq=False)
class BrillouinGrid:
    """Uniform n/N momentum grid, negation-closed by construction.

    Per axis j the integer index runs n_j = -N_j/2 .. N_j/2 - 1 (ascending),
    and flat ordering is row-major over the axes. Reduced coordinates are the
    exact rationals n_j / N_j.
    """

    lattice: Lattice
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        if len(self.sizes) != self.lattice.dim:
            raise GridParityError(
                f"grid rank {len(self.sizes)} does not match lattice dimension {self.lattice.dim}"
            )
        for n in self.sizes:
            if n < 4 or n % 2 != 0:
                raise GridParityError(f"grid sizes must be even and >= 4, got {self.sizes}")

    @property
    def dim(self):
        return self.lattice.dim

    @property
    def npoints(self):
        return int(np.prod(self.sizes))

    @property
    def spacing(self):
        """Reduced-coordinate spacing per axis."""
        return tuple(1.0 / n for n in self.sizes)

    def axis_integers(self, axis):
        n = self.sizes[axis]
        return np.arange(-n // 2, n // 2)

    @property
    def integers(self):
        """(npoints, d) integer indices, row-major."""
        axes = [self.axis_integers(j) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def reduced(self):
        """(npoints, d) reduced coordinates."""
        return self.integers / np.asarray(self.sizes, dtype=float)

    def flat_index(self, integer_vec):
        """Flat position of the grid point with the given integer index vector."""
        pos = 0
        for j, (n, nj) in enumerate(zip(integer_vec, self.sizes)):
            i = int(n) + nj // 2
            if not 0 <= i < nj:
                raise IndexError(f"integer index {integer_vec} outside grid {self.sizes}")
            pos = pos * nj + i
        return pos

    @property
    def negation_permutation(self):
        """Flat-index permutation realizing k -> -k mod Gamma*.

        An involution; its fixed points are exactly the TRIMs contained in
        the grid.
        """
        ints = self.integers
        sizes = np.asarray(self.sizes)
        neg = -ints
        # fold back into [-N/2, N/2): only n = -N/2 maps outside, to +N/2
        neg = np.mod(neg + sizes // 2, sizes) - sizes // 2
        positions = np.zeros(self.npoints, dtype=int)
        for j in range(self.dim):
            positions = positions * sizes[j] + (neg[:, j] + sizes[j] // 2)
        return positions

    @property
    def trim_flat_indices(self):
        """Flat positions of the TRIMs (all contained in any valid grid)."""
        ints = self.integers
        sizes = np.asarray(self.sizes)
        mask = np.all((ints == 0) | (ints == -(sizes // 2)), axis=1)
        return np.nonzero(mask)[0]

    def contains(self, kpoint):
        """Whether the canonical representative of kpoint is a grid point."""
        red = canonical_reduced(kpoint.reduced)
        scaled = red * np.asarray(self.sizes)
        return bool(np.all(np.abs(scaled - np.round(scaled)) < 1e-12))


def make_grid(lattice, sizes):
    """Negation-closed uniform grid; sizes must be even and >= 4."""
    return BrillouinGrid(lattice=lattice, sizes=tuple(sizes))


@dataclass(frozen=True, eq=False)
class TauRep:
    """Action of dual-lattice translations on the fiber.

    kind "trivial": periodic gauge, tau(lambda) = identity (tight-binding).
    kind "shift": plane-wave mode shift G -> G + lambda (a partial isometry
    on a truncated basis; ``retained`` marks the surviving modes).
    kind "explicit": matrices supplied per integer lambda.
    """

    kind: str
    fiber_dim: int
    g_integers: np.ndarray = None
    matrices: dict = None
    # shift kind: plane-wave integer vector -> mode index
    _modes: dict = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("trivial", "shift", "explicit"):
            raise SymmetryError(f"unknown tau kind {self.kind!r}")
        if self.kind == "shift" and self.g_integers is None:
            raise SymmetryError("shift tau needs the plane-wave integer table")
        if self.kind == "explicit" and not self.matrices:
            raise SymmetryError("explicit tau needs a matrix table")
        if self.kind == "shift":
            modes = {tuple(g): i for i, g in enumerate(self.g_integers)}
            object.__setattr__(self, "_modes", modes)

    def matrix(self, lam):
        """Matrix of tau(lambda) for an integer dual vector lambda."""
        lam = tuple(int(x) for x in np.atleast_1d(lam))
        if self.kind == "trivial":
            return np.eye(self.fiber_dim, dtype=complex)
        if self.kind == "explicit":
            if lam not in self.matrices:
                raise SymmetryError(f"tau matrix for lambda={lam} not provided")
            return np.asarray(self.matrices[lam], dtype=complex)
        out = np.zeros((self.fiber_dim, self.fiber_dim), dtype=complex)
        for i, g in enumerate(self.g_integers):
            src = tuple(np.asarray(g) + np.asarray(lam))
            if src in self._modes:
                out[i, self._modes[src]] = 1.0
        return out

    def retained(self, lam):
        """Mask of modes on which tau(lambda) acts isometrically."""
        lam = tuple(int(x) for x in np.atleast_1d(lam))
        if self.kind != "shift":
            return np.ones(self.fiber_dim, dtype=bool)
        mask = np.zeros(self.fiber_dim, dtype=bool)
        for i, g in enumerate(self.g_integers):
            mask[i] = tuple(np.asarray(g) + np.asarray(lam)) in self._modes
        return mask


def _check_unitary(u, what):
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    if u.shape != (m, m):
        raise SymmetryError(f"{what} must be square, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(m))) > 1e-12 * max(1.0, float(np.max(np.abs(u)))):
        raise SymmetryError(f"{what} is not unitary")
    return u


@dataclass(frozen=True, eq=False)
class TimeReversal:
    """Antiunitary time reversal Theta = U K (K = complex conjugation).

    sign +1 is the bosonic case (Theta^2 = +1), -1 the fermionic one
    (Theta^2 = -1); U conj(U) = sign * I is validated on construction.
    """

    unitary: np.ndarray
    sign: int

    def __post_init__(self):
        u = _check_unitary(self.unitary, "time-reversal unitary part")
        object.__setattr__(self, "unitary", u)
        if self.sign not in (+1, -1):
            raise SymmetryError(f"time-reversal sign must be +1 or -1, got {self.sign}")
        square = u @ u.conj()
        if np.max(np.abs(square - self.sign * np.eye(u.shape[0]))) > 1e-12:
            raise SymmetryError("U conj(U) != sign * I for the declared time reversal")

    @property
    def fiber_dim(self):
        return self.unitary.shape[0]

    def apply(self, v):
        """Theta v (columnwise for matrices of column vectors)."""
        return self.unitary @ np.conj(v)

    def conjugate(self, a):
        """Theta A Theta^{-1} for a linear operator A."""
        return self.unitary @ np.conj(a) @ self.unitary.conj().T


@dataclass(frozen=True, eq=False)
class SpaceReflection:
    """Unitary involution implementing y -> -y on the fiber."""

    unitary: np.ndarray

    def __post_init__(self):
        u = _check_unitary(self.unitary, "space-reflection unitary")
        object.__setattr__(self, "unitary", u)
        if np.max(np.abs(u @ u - np.eye(u.shape[0]))) > 1e-12:
            raise SymmetryError("space reflection must square to the identity")

    @property
    def fiber_dim(self):
        return self.unitary.shape[0]

    def conjugate(self, a):
        """R A R^{-1}."""
        return self.unitary @ a @ self.unitary.conj().T


def reshuffle_matrix(m, sign):
    """Pairing matrix epsilon for symmetric-frame constructions.

    Bosonic (sign +1): identity. Fermionic (sign -1): the standard symplectic
    form [[0, I], [-I, 0]], which needs even m.
    """
    if sign == +1:
        return np.eye(m)
    if sign == -1:
        if m % 2 != 0:
            raise EvenRankError(f"fermionic pairing needs an even rank, got {m}")
        half = m // 2
        eps = np.zeros((m, m))
        eps[:half, half:] = np.eye(half)
        eps[half:, :half] = -np.eye(half)
        return eps
    raise SymmetryError(f"sign must be +1 or -1, got {sign}")

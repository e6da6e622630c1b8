"""Small dense linear-algebra helpers shared across modules.

Everything here operates on plain ndarrays and stays well below dimension a
few hundred, so dense LAPACK routines are always the right tool.
"""

import numpy as np
import scipy.linalg as sla

__all__ = [
    "closest_unitary",
    "eigenphases",
    "unitary_log",
    "unitary_geodesic",
    "hermitize",
    "links",
    "operator_norm",
]


def hermitize(a):
    """Return the Hermitian part (a + a^dagger)/2."""
    return 0.5 * (a + a.conj().T)


def closest_unitary(a):
    """Closest unitary (isometry, if rectangular) factor of ``a``.

    For a tall m x r matrix of full column rank this is the polar factor
    U @ Vh from the thin SVD, i.e. the isometry minimizing ||a - Q|| over
    matrices with orthonormal columns.
    """
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    return u @ vh


def operator_norm(a):
    """Spectral norm (largest singular value), batched over leading axes."""
    return np.linalg.svd(a, compute_uv=False).max(axis=-1)


def links(frames, axis):
    """Links F_j^dagger F_{j+1} along ``axis`` of a (..., m_H, m) frame stack.

    The result (..., m, m) has one entry fewer along ``axis`` (link variables
    of Fukui, Hatsugai & Suzuki, J. Phys. Soc. Jpn. 74, 1674 (2005)).
    """
    f = np.moveaxis(frames, axis, 0)
    return np.moveaxis(f[:-1].conj().swapaxes(-1, -2) @ f[1:], 0, axis)


def eigenphases(u):
    """Eigenvalue phases of a unitary matrix, sorted ascending, in (-pi, pi]."""
    phases = np.angle(np.linalg.eigvals(u))
    # np.angle returns [-pi, pi]; fold the -pi edge onto +pi for determinism
    phases = np.where(phases <= -np.pi + 1e-15, phases + 2 * np.pi, phases)
    return np.sort(phases)


def _branch_cut(u, tol):
    """Cut angle for the logarithm of unitary ``u``.

    Principal cut (pi) unless an eigenphase sits within ``tol`` of it, in
    which case the cut moves to the midpoint of the widest gap between
    consecutive eigenphases. Deterministic.
    """
    phases = eigenphases(u)
    dist_to_pi = np.min(np.abs(np.abs(phases) - np.pi))
    if dist_to_pi > tol:
        return np.pi
    ext = np.concatenate([phases, [phases[0] + 2 * np.pi]])
    gaps = np.diff(ext)
    j = int(np.argmax(gaps))
    return phases[j] + 0.5 * gaps[j]


def unitary_log(u, tol=1e-9):
    """Skew-Hermitian logarithm of a unitary matrix.

    Eigenphases are taken in (cut - 2*pi, cut]; the cut is the principal one
    (at pi) unless an eigenvalue lies on it, in which case it is rotated
    deterministically into the widest spectral gap.
    """
    cut = _branch_cut(u, tol)
    # rotate so the requested cut lands on the principal one, then rotate back
    rotated = u * np.exp(1j * (np.pi - cut))
    log_rot = sla.logm(rotated)
    out = log_rot - 1j * (np.pi - cut) * np.eye(u.shape[0])
    # u is unitary so the log must be skew-Hermitian; strip round-off drift
    return 0.5 * (out - out.conj().T)


def unitary_geodesic(u0, u1, t, tol=1e-9):
    """Point at parameter ``t`` on the geodesic from ``u0`` to ``u1`` in U(m).

    t may be a scalar or a 1d array; returns the matching stack.
    """
    step = unitary_log(u0.conj().T @ u1, tol=tol)
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.stack([u0 @ sla.expm(s * step) for s in ts])
    return out[0] if np.isscalar(t) else out

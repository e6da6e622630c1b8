"""Unitary and projector linear algebra.

The rotation intertwiner is checked against an explicit 2x2 rotation (the
one closed form that is easy to write down independently) and then stress
tested on seeded random projector pairs of every small rank and dimension.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from blochtopo import (
    ProjectorDistanceError,
    closest_unitary,
    eigenphases,
    hermitize,
    kato_nagy,
    unitary_geodesic,
    unitary_log,
)
from blochtopo.linalg import links


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector(rng, n, rank):
    u = random_unitary(rng, n)
    return u[:, :rank] @ u[:, :rank].conj().T


class TestHermitize:
    def test_idempotent_and_hermitian(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = hermitize(a)
        assert np.allclose(h, h.conj().T)
        assert np.allclose(hermitize(h), h)

    def test_projection_is_minimal(self):
        # (a + a^H)/2 is the closest Hermitian matrix in Frobenius norm
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = hermitize(a)
        assert np.allclose(h, (a + a.conj().T) / 2)


class TestClosestUnitary:
    def test_fixes_unitaries(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5):
            u = random_unitary(rng, n)
            assert np.allclose(closest_unitary(u), u, atol=1e-12)

    def test_polar_factor_properties(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = rng.integers(2, 7)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            u = closest_unitary(a)
            assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-10)
            # the polar factor leaves a positive semidefinite remainder
            h = u.conj().T @ a
            assert np.allclose(h, h.conj().T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(hermitize(h))) > -1e-10

    def test_optimality_against_random_competitors(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = closest_unitary(a)
        best = np.linalg.norm(a - u)
        for _ in range(50):
            v = random_unitary(rng, 4)
            assert np.linalg.norm(a - v) >= best - 1e-12


class TestLinks:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_per_pair_overlaps(self, axis):
        rng = np.random.default_rng(4)
        frames = np.stack([[random_unitary(rng, 4)[:, :2] for _ in range(6)] for _ in range(5)])
        got = links(frames, axis)
        shape = list(frames.shape[:2])
        shape[axis] -= 1
        assert got.shape == tuple(shape) + (2, 2)
        step = (1, 0) if axis == 0 else (0, 1)
        for i, j in np.ndindex(*shape):
            want = frames[i, j].conj().T @ frames[i + step[0], j + step[1]]
            assert np.max(np.abs(got[i, j] - want)) < 1e-15


class TestEigenphases:
    def test_diagonal_case(self):
        u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.9])))
        assert np.allclose(sorted(eigenphases(u)), sorted([0.3, -1.2, 2.9]))

    def test_range_is_principal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = random_unitary(rng, 5)
            ph = eigenphases(u)
            assert np.all(ph > -np.pi - 1e-12) and np.all(ph <= np.pi + 1e-12)


class TestUnitaryLog:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = rng.integers(2, 6)
            u = random_unitary(rng, n)
            a = unitary_log(u)
            assert np.allclose(a, -a.conj().T, atol=1e-10)
            assert np.allclose(expm(a), u, atol=1e-9)

    def test_identity_gives_zero(self):
        assert np.allclose(unitary_log(np.eye(3)), 0.0)

    def test_branch_point_is_deterministic(self):
        # an eigenvalue exactly at -1 sits on the branch cut; the rotation
        # rule must shift it reproducibly rather than jitter with noise
        u = np.diag([-1.0 + 0j, 1.0 + 0j])
        a1 = unitary_log(u)
        a2 = unitary_log(u.copy())
        assert np.allclose(a1, a2)
        assert np.allclose(expm(a1), u, atol=1e-12)


class TestUnitaryGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(7)
        u0 = random_unitary(rng, 4)
        u1 = random_unitary(rng, 4)
        assert np.allclose(unitary_geodesic(u0, u1, 0.0), u0, atol=1e-10)
        assert np.allclose(unitary_geodesic(u0, u1, 1.0), u1, atol=1e-9)

    def test_stays_unitary_along_the_way(self):
        rng = np.random.default_rng(8)
        u0 = random_unitary(rng, 3)
        u1 = random_unitary(rng, 3)
        for t in np.linspace(0, 1, 11):
            g = unitary_geodesic(u0, u1, float(t))
            assert np.allclose(g @ g.conj().T, np.eye(3), atol=1e-10)

    def test_midpoint_symmetry(self):
        rng = np.random.default_rng(9)
        u0 = random_unitary(rng, 3)
        u1 = random_unitary(rng, 3)
        mid = unitary_geodesic(u0, u1, 0.5)
        # the same arc traversed backwards passes through the same midpoint
        mid_rev = unitary_geodesic(u1, u0, 0.5)
        assert np.allclose(mid, mid_rev, atol=1e-9)


class TestKatoNagy:
    def test_rank1_rotation_closed_form(self):
        # for projectors onto (cos a, sin a) the intertwiner must be the
        # plane rotation by the angle difference
        for a, b in [(0.0, 0.3), (0.2, -0.5), (1.0, 1.4)]:
            va = np.array([np.cos(a), np.sin(a)])
            vb = np.array([np.cos(b), np.sin(b)])
            w = kato_nagy(np.outer(va, va), np.outer(vb, vb))
            c, s = np.cos(b - a), np.sin(b - a)
            assert np.allclose(w.real, [[c, -s], [s, c]], atol=1e-12)
            assert np.allclose(w.imag, 0.0, atol=1e-12)

    def test_intertwines_random_pairs(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 300:
            n = int(rng.integers(2, 9))
            rank = int(rng.integers(1, min(n, 5)))
            p1 = random_projector(rng, n, rank)
            step = 0.2 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            h = hermitize(step)
            u = expm(1j * h)
            p2 = u @ p1 @ u.conj().T
            if np.linalg.norm(p2 - p1, 2) >= 0.9:
                continue
            w = kato_nagy(p1, p2)
            assert np.allclose(w @ w.conj().T, np.eye(n), atol=1e-9)
            assert np.linalg.norm(w @ p1 @ w.conj().T - p2) < 1e-9
            checked += 1

    def test_identity_for_equal_projectors(self):
        rng = np.random.default_rng(11)
        p = random_projector(rng, 5, 2)
        assert np.allclose(kato_nagy(p, p), np.eye(5), atol=1e-12)

    def test_continuity_near_coincidence(self):
        rng = np.random.default_rng(12)
        p1 = random_projector(rng, 6, 3)
        h = hermitize(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        for eps in (1e-3, 1e-6, 1e-9):
            u = expm(1j * eps * h)
            w = kato_nagy(p1, u @ p1 @ u.conj().T)
            assert np.linalg.norm(w - np.eye(6), 2) < 20 * eps

    def test_distant_projectors_rejected(self):
        p1 = np.diag([1.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ProjectorDistanceError):
            kato_nagy(p1, p2)

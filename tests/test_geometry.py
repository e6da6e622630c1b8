"""Curvature fields and first Chern numbers.

Chern values are pinned three ways: the library's two methods must agree
exactly, and both must match a bare-bones overlap-determinant loop frozen
in this file that never touches the library's geometry code. The Haldane
sign pattern against the mass formula fixes the orientation convention.
"""

import numpy as np
import pytest

from blochtopo import (
    BrillouinGrid,
    ProjectorFamily,
    berry_curvature,
    build_builtin,
    chern_number_curvature,
    chern_number_plaquette,
    curvature_parity,
    export_curvature_csv,
    smoothness_probe,
)
from blochtopo.geometry import plaquette_phases

SQ3 = np.sqrt(3.0)


def family_on(name, params, n):
    model = build_builtin(name, params)
    fam = ProjectorFamily.from_model(model)
    return fam, BrillouinGrid(model.lattice, (n, n))


def plaquette_oracle(fam, grid):
    # independent Chern evaluation: frames on the periodic grid, principal
    # plaquette phases, total divided by 2 pi (periodic gauge only)
    n1, n2 = grid.sizes
    f = fam.frames(grid.reduced).reshape(n1, n2, fam.fiber_dim, -1)

    def link(a, b):
        d = np.linalg.det(np.einsum("ij,ik->jk", a.conj(), b))
        return d / abs(d)

    total = 0.0
    for i in range(n1):
        for j in range(n2):
            ip, jp = (i + 1) % n1, (j + 1) % n2
            w = (
                link(f[i, j], f[ip, j])
                * link(f[ip, j], f[ip, jp])
                * link(f[ip, jp], f[i, jp])
                * link(f[i, jp], f[i, j])
            )
            total += np.angle(w)
    return total / (2 * np.pi)


class TestBerryCurvature:
    def test_field_shape_and_realness(self):
        fam, grid = family_on("haldane", {}, 12)
        field = berry_curvature(fam, grid)
        assert field.values.shape == (144,)
        assert field.values.dtype == np.float64
        assert field.discarded_real < 1e-8

    def test_default_step_is_half_spacing(self):
        fam, grid = family_on("haldane", {}, 12)
        field = berry_curvature(fam, grid)
        assert field.step == pytest.approx((1 / 24, 1 / 24))

    def test_oversized_step_rejected(self):
        fam, grid = family_on("haldane", {}, 12)
        with pytest.raises(ValueError):
            berry_curvature(fam, grid, step=(0.1, 0.1))

    def test_same_axis_rejected(self):
        fam, grid = family_on("haldane", {}, 12)
        with pytest.raises(ValueError):
            berry_curvature(fam, grid, pair=(1, 1))

    def test_antisymmetric_in_the_axis_pair(self):
        fam, grid = family_on("haldane", {}, 12)
        a = berry_curvature(fam, grid, pair=(0, 1))
        b = berry_curvature(fam, grid, pair=(1, 0))
        assert np.max(np.abs(a.values + b.values)) < 1e-9


class TestChernNumbers:
    def test_two_methods_and_oracle_agree_on_haldane(self):
        fam, grid = family_on("haldane", {"M": 0.0}, 16)
        # a fixed small difference step separates the estimator bias from
        # the (spectrally accurate) periodic quadrature
        field = berry_curvature(fam, grid, step=(1e-4, 1e-4))
        by_curv = chern_number_curvature(field)
        by_plaq = chern_number_plaquette(fam, grid)
        assert not by_curv.unconverged and not by_plaq.unconverged
        assert by_curv.value == by_plaq.value
        oracle = plaquette_oracle(fam, grid)
        assert abs(oracle - by_plaq.value) < 1e-6
        assert abs(by_plaq.value) == 1

    def test_default_step_residual_shrinks_quadratically(self):
        fam, _ = family_on("haldane", {"M": 0.0}, 16)
        res = []
        for n in (16, 32):
            grid = fam.make_grid((n, n))
            res.append(chern_number_curvature(berry_curvature(fam, grid)).residual)
        assert res[1] == pytest.approx(res[0] / 4, rel=0.2)

    def test_haldane_sign_pattern(self):
        # Chern number is +1 when the K mass M - 3 sqrt(3) t2 sin(phi) is
        # negative and the K' mass is positive; 0 when both agree in sign
        for phi in (np.pi / 2, -np.pi / 2):
            for m_stag in (0.0, 0.3, 1.2):
                fam, grid = family_on(
                    "haldane", {"t1": 1, "t2": 0.2, "phi": phi, "M": m_stag}, 16
                )
                value = chern_number_plaquette(fam, grid).value
                inside = abs(m_stag) < 3 * SQ3 * 0.2 * abs(np.sin(phi))
                assert abs(value) == (1 if inside else 0)
                if inside:
                    assert value == (1 if np.sin(phi) > 0 else -1)
                assert value == chern_number_curvature(
                    berry_curvature(fam, grid)
                ).value

    def test_time_reversal_forces_zero(self):
        for name, params in (
            ("kane_mele", {"lr": 0.05, "lv": 0.1}),
            ("haldane", {"phi": 0.0, "M": 0.4}),
            ("haldane", {"phi": np.pi, "M": 0.4}),
        ):
            fam, grid = family_on(name, params, 12)
            assert chern_number_plaquette(fam, grid).value == 0
            assert chern_number_curvature(berry_curvature(fam, grid)).value == 0

    def test_plaquette_residual_is_tiny(self):
        fam, grid = family_on("haldane", {}, 16)
        res = chern_number_plaquette(fam, grid)
        assert res.residual < 1e-10

    def test_plaquette_phases_match_the_four_determinant_loop(self):
        # Kane-Mele frames on the effective half-cell [0, 1/2] x [-1/2, 1/2]
        fam, _ = family_on("kane_mele", {"lr": 0.05, "lv": 0.1}, 12)
        n1, n2 = 12, 12
        pts = np.array([(i / n1, -0.5 + j / n2) for i in range(n1 // 2 + 1) for j in range(n2 + 1)])
        f = fam.frames(pts).reshape(n1 // 2 + 1, n2 + 1, fam.fiber_dim, -1)

        def det(a, b):
            return np.linalg.det(np.einsum("ijab,ijac->ijbc", a.conj(), b))

        # reference: four overlap determinants per plaquette, counterclockwise
        loops = (
            det(f[:-1, :-1], f[1:, :-1])
            * det(f[1:, :-1], f[1:, 1:])
            * det(f[1:, 1:], f[:-1, 1:])
            * det(f[:-1, 1:], f[:-1, :-1])
        )
        phases, smallest = plaquette_phases(f)
        assert phases.shape == (n1 // 2, n2)
        assert np.max(np.abs(phases - np.angle(loops))) < 1e-13
        assert 0.5 < smallest <= 1.0 + 1e-12

    def test_integration_needs_two_dimensions(self):
        model = build_builtin("ssh")
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (12,))
        with pytest.raises(ValueError):
            chern_number_plaquette(fam, grid)

    def test_restricted_3d_plane(self):
        model = build_builtin("wilson_dirac_3d", {"m": -2.0})
        fam = ProjectorFamily.from_model(model).restrict(2, 0.0)
        assert fam.dim == 2
        assert fam.time_reversal is not None  # the plane maps to itself
        res = chern_number_plaquette(fam, fam.make_grid((10, 10)))
        assert res.value == 0  # time-reversal symmetric plane

    def test_restriction_off_symmetric_plane_drops_operators(self):
        model = build_builtin("wilson_dirac_3d", {"m": -2.0})
        fam = ProjectorFamily.from_model(model).restrict(2, 0.2)
        assert fam.time_reversal is None
        assert "time_reversal" in fam.dropped_symmetries


class TestCurvatureParity:
    def test_time_reversal_makes_curvature_odd(self):
        fam, grid = family_on("kane_mele", {"lso": 0.06, "lr": 0.05, "lv": 0.1}, 12)
        parity = curvature_parity(fam, grid)
        assert parity["odd_residual"] < 1e-6
        assert parity["even_residual"] > 0.01

    def test_combined_symmetries_kill_the_curvature(self):
        fam, grid = family_on("kane_mele", {"lso": 0.06, "lr": 0.0, "lv": 0.0}, 12)
        parity = curvature_parity(fam, grid)
        assert parity["max_abs"] < 1e-6

    def test_broken_time_reversal_control(self):
        fam, grid = family_on("haldane", {}, 12)
        parity = curvature_parity(fam, grid)
        assert parity["max_abs"] > 0.1
        assert parity["odd_residual"] > 0.1


class TestSmoothnessProbe:
    def test_gapped_family_is_resolved(self):
        fam, grid = family_on("haldane", {"M": 0.3}, 8)
        report = smoothness_probe(fam, grid)
        assert report.resolved
        assert report.fine_sizes == (16, 16)

    def test_probe_reports_refinement_ratios(self):
        fam, grid = family_on("kane_mele", {"lr": 0.05, "lv": 0.1}, 8)
        report = smoothness_probe(fam, grid)
        assert len(report.ratios) == len(report.coarse)
        assert all(np.isfinite(r) for r in report.ratios)


class TestCurvatureCsv:
    def test_export_layout(self, tmp_path):
        fam, grid = family_on("haldane", {}, 8)
        field = berry_curvature(fam, grid)
        path = tmp_path / "curv.csv"
        export_curvature_csv(field, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "k1,k2,omega"
        assert len(rows) == 65
        first = rows[1].split(",")
        assert float(first[0]) == pytest.approx(-0.5)
        total = sum(float(r.split(",")[2]) for r in rows[1:]) / len(rows[1:]) / (2 * np.pi)
        assert abs(total - chern_number_curvature(field).raw) < 1e-12

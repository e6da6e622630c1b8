"""Spectral and contour-integral projectors.

The contour path is cross-checked against two independent constructions
frozen in this file: a direct eigenvector outer-product sum, and a Newton
iteration for the matrix sign function of H - mu (which never touches an
eigensolver). Convergence in the node count must be geometric.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochtopo import (
    AmbiguousSelectionError,
    BandSelection,
    BrillouinGrid,
    ContourCollisionError,
    EllipseContour,
    FourierPotential,
    GaplessError,
    ProjectorFamily,
    TauRep,
    berry_curvature,
    build_builtin,
    chern_number_plaquette,
    default_contour,
    gap_check,
    make_plane_wave_basis,
    riesz_projector,
    smooth_periodic_frame,
    smoothness_probe,
    spectral_projector,
    verify_projector_symmetries,
    z2_boundary_winding,
    z2_wilson_flow,
)


def random_hermitian(rng, n, spread=2.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return spread * (a + a.conj().T) / 2


def eigensum_projector(h, count):
    # oracle 1: outer products of the lowest eigenvectors
    evals, evecs = np.linalg.eigh(h)
    cols = evecs[:, :count]
    return cols @ cols.conj().T


def sign_function_projector(h, mu, iterations=60):
    # oracle 2: P = (I - sign(H - mu)) / 2 via the Newton iteration
    # X <- (X + X^{-1}) / 2, which uses no eigensolver at all
    x = np.asarray(h, dtype=complex) - mu * np.eye(h.shape[0])
    for _ in range(iterations):
        x = 0.5 * (x + np.linalg.inv(x))
    return 0.5 * (np.eye(h.shape[0]) - x)


class TestBandSelection:
    def test_lowest_counts(self):
        sel = BandSelection.lowest(2)
        assert list(sel.select(np.array([-2.0, -1.0, 1.0, 3.0]))) == [0, 1]

    def test_index_window(self):
        sel = BandSelection.index_window(1, 2)
        assert list(sel.select(np.array([-2.0, -1.0, 1.0, 3.0]))) == [1, 2]

    def test_energy_window(self):
        sel = BandSelection.energy_window(-1.5, 2.0)
        assert list(sel.select(np.array([-2.0, -1.0, 1.0, 3.0]))) == [1, 2]

    def test_empty_energy_window_rejected(self):
        sel = BandSelection.energy_window(4.0, 5.0)
        with pytest.raises(AmbiguousSelectionError):
            sel.select(np.array([-2.0, -1.0, 1.0, 3.0]))

    def test_separation_is_distance_to_complement(self):
        sel = BandSelection.lowest(2)
        evals = np.array([-2.0, -1.0, 1.0, 3.0])
        idx, sep = sel.separation(evals)
        assert list(idx) == [0, 1]
        assert sep == pytest.approx(2.0)

    def test_full_selection_has_infinite_separation(self):
        sel = BandSelection.lowest(3)
        _, sep = sel.separation(np.array([-1.0, 0.0, 1.0]))
        assert sep == np.inf


@st.composite
def sorted_spectra(draw):
    """(npts, n) stack of ascending rows, many with ties at a window boundary."""
    n = draw(st.integers(1, 6))
    npts = draw(st.integers(1, 5))
    value = st.floats(-4.0, 4.0, allow_nan=False)
    pool = draw(st.lists(value, min_size=1, max_size=3))
    rows = []
    for _ in range(npts):
        entries = st.lists(st.one_of(st.sampled_from(pool), value), min_size=n, max_size=n)
        row = sorted(draw(entries))
        if n > 1 and draw(st.booleans()):
            # copying the left neighbour keeps the row sorted and forces a tie
            j = draw(st.integers(1, n - 1))
            row[j] = row[j - 1]
        rows.append(row)
    return np.array(rows)


@st.composite
def selections_for(draw, evals):
    n = evals.shape[1]
    if draw(st.booleans()):
        start = draw(st.integers(0, n))
        # counts past n - start make a window wider than the spectrum
        return BandSelection.index_window(start, draw(st.integers(1, n + 1)))
    # edges on eigenvalues cut through ties; the far values give empty and
    # exhaustive windows
    edge = st.one_of(
        st.sampled_from(sorted(set(evals.ravel().tolist()))),
        st.floats(-5.0, 5.0, allow_nan=False),
        st.sampled_from([-10.0, -9.0, 9.0, 10.0]),
    )
    low, high = sorted((draw(edge), draw(edge)))
    return BandSelection.energy_window(low, high if high > low else low + 1.0)


class TestBatchedSeparation:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_separations_match_per_row_separation_exactly(self, data):
        evals = data.draw(sorted_spectra())
        sel = data.draw(selections_for(evals))
        if sel.mode == "index_window" and sel.start + sel.count > evals.shape[1]:
            with pytest.raises(ValueError) as batched:
                sel.separations(evals)
            with pytest.raises(ValueError) as single:
                sel.separation(evals[0])
            assert str(batched.value) == str(single.value)
            return
        lo, hi, sep = sel.separations(evals)
        for i, row in enumerate(evals):
            idx, want = sel.separation(row)
            assert list(idx) == list(range(lo[i], hi[i]))
            assert np.float64(sep[i]).tobytes() == np.float64(want).tobytes()

    def test_signed_zero_tie_gives_the_same_bits(self):
        # a row may hold -0.0 after 0.0; their difference is then -0.0
        evals = np.array([[0.0, -0.0, 1.0]])
        for sel in (BandSelection.lowest(1), BandSelection.index_window(1, 1)):
            _, _, sep = sel.separations(evals)
            want = sel.separation(evals[0])[1]
            assert np.float64(sep[0]).tobytes() == np.float64(want).tobytes()

    def test_empty_and_exhaustive_windows_are_infinitely_separated(self):
        evals = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.5, 0.5]])
        for low, high, rank in ((5.0, 6.0, 0), (-6.0, -5.0, 0), (-3.0, 3.0, 3)):
            lo, hi, sep = BandSelection.energy_window(low, high).separations(evals)
            assert list(hi - lo) == [rank, rank]
            assert list(sep) == [np.inf, np.inf]


def diagonal_family(spectra, selection):
    """One-dimensional family whose H(k) is diag(spectra[k]) at points k = 0, 1, ..."""
    spectra = np.asarray(spectra, dtype=float)

    def evaluator(points):
        rows = spectra[np.asarray(points[:, 0], dtype=int)]
        return np.einsum("ki,ij->kij", rows, np.eye(rows.shape[1])).astype(complex)

    return ProjectorFamily(
        dim=1,
        fiber_dim=spectra.shape[1],
        selection=selection,
        evaluator=evaluator,
        tau=TauRep(kind="trivial", fiber_dim=spectra.shape[1]),
    )


class TestSelectionErrors:
    # the lowest band touches the next one at point 2 (split 1e-12) and at
    # point 4 (exact tie); the first offending point names the separation
    SPECTRA = [[-1.0, 0.0, 2.0], [-1.0, -0.5, 2.0], [-1.0, -1.0 + 1e-12, 2.0],
               [-1.0, 0.0, 2.0], [-1.0, -1.0, 2.0]]
    POINTS = np.arange(5.0).reshape(-1, 1)

    @pytest.mark.parametrize("method", ["projectors", "frames"])
    def test_degenerate_boundary_raises_at_first_offending_point(self, method):
        fam = diagonal_family(self.SPECTRA, BandSelection.lowest(1))
        message = (r"^selection boundary falls inside a degenerate cluster "
                   r"\(separation 1\.000e-12\)$")
        with pytest.raises(AmbiguousSelectionError, match=message):
            getattr(fam, method)(self.POINTS)

    @pytest.mark.parametrize("method", ["projectors", "frames"])
    def test_energy_window_empty_at_one_point_raises(self, method):
        fam = diagonal_family(self.SPECTRA[:2], BandSelection.energy_window(-0.7, -0.2))
        with pytest.raises(AmbiguousSelectionError, match="^energy window selects no eigenvalue$"):
            getattr(fam, method)(self.POINTS[:2])

    def test_window_wider_than_spectrum_raises_value_error(self):
        fam = diagonal_family(self.SPECTRA, BandSelection.index_window(2, 2))
        message = r"^index window 2\.\.3 exceeds the 3 available bands$"
        for call in (fam.frames, fam.projectors):
            with pytest.raises(ValueError, match=message):
                call(self.POINTS)
        model = build_builtin("haldane")
        wide = ProjectorFamily.from_model(model, BandSelection.index_window(1, 2))
        message = r"^index window 1\.\.2 exceeds the 2 available bands$"
        with pytest.raises(ValueError, match=message):
            gap_check(wide, BrillouinGrid(model.lattice, (4, 4)))

    def test_frames_refuse_varying_rank(self):
        fam = diagonal_family(self.SPECTRA[:2], BandSelection.energy_window(-1.5, -0.2))
        message = r"^selection rank varies over the points: \[1, 2\]$"
        with pytest.raises(GaplessError, match=message):
            fam.frames(self.POINTS[:2])

    def test_gap_check_with_varying_rank_keeps_the_per_point_argmin(self):
        model = build_builtin("haldane", {"M": 0.3})
        # the window edge at -2 cuts through the lowest band (-3.01 .. -0.74)
        sel = BandSelection.energy_window(-2.0, 0.0)
        fam = ProjectorFamily.from_model(model, sel)
        g = BrillouinGrid(model.lattice, (12, 12))
        report = gap_check(fam, g)
        # oracle: the per-point separation, minimized in grid order
        evals, _ = fam.eigensystems(g.reduced)
        seps = [sel.separation(row)[1] for row in evals]
        ranks = {sel.separation(row)[0].size for row in evals}
        first = int(np.argmin(seps))
        assert len(ranks) > 1
        assert report.rank_constant is False
        assert report.gapless is True
        assert report.argmin == tuple(float(x) for x in g.reduced[first])
        assert report.min_gap == seps[first]


class TestSpectralProjector:
    def test_matches_eigensum_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            count = int(rng.integers(1, n))
            h = random_hermitian(rng, n)
            if BandSelection.lowest(count).separation(np.linalg.eigvalsh(h))[1] < 1e-3:
                continue
            p = spectral_projector(h, BandSelection.lowest(count))
            assert np.linalg.norm(p - eigensum_projector(h, count)) < 1e-12

    def test_projector_axioms(self):
        rng = np.random.default_rng(42)
        h = random_hermitian(rng, 6)
        p = spectral_projector(h, BandSelection.lowest(3))
        assert np.allclose(p, p.conj().T, atol=1e-13)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.linalg.norm(h @ p - p @ h) < 1e-12

    def test_degenerate_cut_rejected(self):
        h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        with pytest.raises(AmbiguousSelectionError):
            spectral_projector(h, BandSelection.lowest(2))


def two_cluster_hermitian(rng, n, count):
    # eigenvalues in [-2,-1] and [1,2]: the gap-to-spread ratio is bounded
    # below, so the quadrature rate is uniform over draws
    lo = np.sort(rng.uniform(-2.0, -1.0, size=count))
    hi = np.sort(rng.uniform(1.0, 2.0, size=n - count))
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q @ np.diag(np.concatenate([lo, hi])) @ q.conj().T


class TestRieszProjector:
    def test_matches_both_oracles(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            count = int(rng.integers(1, n))
            h = two_cluster_hermitian(rng, n, count)
            p = riesz_projector(h, nodes=64, selection=BandSelection.lowest(count))
            assert np.linalg.norm(p - eigensum_projector(h, count)) < 1e-9
            assert np.linalg.norm(p - sign_function_projector(h, 0.0)) < 1e-9

    def test_geometric_convergence_in_nodes(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            h = two_cluster_hermitian(rng, 6, 3)
            sel = BandSelection.lowest(3)
            exact = spectral_projector(h, sel)
            errs = [
                np.linalg.norm(riesz_projector(h, nodes=n, selection=sel) - exact)
                for n in (16, 32, 64)
            ]
            assert errs[1] < 0.1 * errs[0]
            assert errs[2] < 0.1 * errs[1] or errs[2] < 1e-13

    def test_explicit_contour(self):
        h = np.diag([-2.0, -1.0, 1.0, 3.0]).astype(complex)
        contour = EllipseContour(center=-1.5 + 0j, radius_real=1.0, radius_imag=0.5)
        p = riesz_projector(h, contour=contour, nodes=96)
        assert np.linalg.norm(p - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-9

    def test_contour_through_spectrum_rejected(self):
        h = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        contour = EllipseContour(center=-1.0 + 0j, radius_real=1.0, radius_imag=1e-12)
        with pytest.raises(ContourCollisionError):
            riesz_projector(h, contour=contour, nodes=32)

    def test_default_contour_encloses_selection_only(self):
        evals = np.array([-2.0, -1.0, 1.0, 3.0])
        contour = default_contour(evals, BandSelection.lowest(2))
        assert contour.encloses(-2.0) and contour.encloses(-1.0)
        assert not contour.encloses(1.0) and not contour.encloses(3.0)


class TestProjectorFamily:
    def test_pointwise_axioms_on_builtin(self):
        model = build_builtin("kane_mele", {"lr": 0.05, "lv": 0.1})
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, (6, 6))
        projs = fam.projectors(g.reduced)
        assert projs.shape == (36, 4, 4)
        assert np.max(np.abs(projs - np.conj(np.transpose(projs, (0, 2, 1))))) < 1e-12
        assert np.max(np.abs(np.einsum("kij,kjl->kil", projs, projs) - projs)) < 1e-12
        ranks = np.trace(projs, axis1=1, axis2=2).real
        assert np.allclose(ranks, 2.0, atol=1e-10)

    def test_frames_span_the_projector(self):
        model = build_builtin("haldane")
        fam = ProjectorFamily.from_model(model)
        pts = np.array([[0.1, 0.2], [0.3, -0.4]])
        frames = fam.frames(pts)
        projs = fam.projectors(pts)
        rebuilt = np.einsum("kia,kja->kij", frames, np.conj(frames))
        assert np.max(np.abs(rebuilt - projs)) < 1e-12
        gram = np.einsum("kia,kib->kab", np.conj(frames), frames)
        assert np.max(np.abs(gram - np.eye(frames.shape[2]))) < 1e-12

    def test_energy_window_matches_the_index_window_it_selects(self):
        model = build_builtin("haldane")
        pts = BrillouinGrid(model.lattice, (16, 16)).reduced
        by_index = ProjectorFamily.from_model(model, BandSelection.lowest(1)).projectors(pts)
        window = BandSelection.energy_window(-10.0, 0.0)
        by_energy = ProjectorFamily.from_model(model, window).projectors(pts)
        assert np.max(np.abs(by_energy - by_index)) < 1e-14

    def test_rank_varying_window_matches_per_row_reference(self):
        model = build_builtin("haldane", {"M": 0.3})
        # the window edge at -2 cuts through the lowest band (-3.01 .. -0.74)
        fam = ProjectorFamily.from_model(model, BandSelection.energy_window(-2.0, 0.0))
        pts = BrillouinGrid(model.lattice, (12, 12)).reduced
        projs = fam.projectors(pts, strict=False)
        evals, evecs = fam.eigensystems(pts)
        ranks = set()
        for p, row, vec in zip(projs, evals, evecs):
            v = vec[:, (row >= -2.0) & (row <= 0.0)]
            ranks.add(v.shape[1])
            assert np.max(np.abs(p - v @ v.conj().T)) < 1e-14
        assert ranks == {0, 1}

    def test_restrict_fixes_an_axis(self):
        model = build_builtin("wilson_dirac_3d")
        fam = ProjectorFamily.from_model(model)
        plane = fam.restrict(2, -0.5)
        assert plane.dim == 2
        p2 = plane.projector(np.array([0.1, 0.2]))
        p3 = fam.projector(np.array([0.1, 0.2, -0.5]))
        assert np.linalg.norm(p2 - p3) < 1e-12

    def test_plane_wave_family(self):
        from blochtopo import Lattice

        lat = Lattice.from_basis(np.eye(1))
        basis = make_plane_wave_basis(lat, 4.5 * 2 * np.pi)
        pot = FourierPotential({(1,): 2.0, (-1,): 2.0})
        fam = ProjectorFamily.from_potential(pot, basis, BandSelection.lowest(1))
        p = fam.projector(np.array([0.2]))
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert fam.tau.kind == "shift"

    def test_projectors_strict_mode(self):
        model = build_builtin("ssh", {"t": 1.0, "tp": 1.0})
        fam = ProjectorFamily.from_model(model)
        bad = np.array([[-0.5]])
        with pytest.raises(AmbiguousSelectionError):
            fam.projectors(bad)


class TestGapCheck:
    def test_gapped_model_reports_minimum(self):
        model = build_builtin("haldane", {"M": 0.3})
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, (12, 12))
        report = gap_check(fam, g)
        assert not report.gapless
        assert report.min_gap > 0.1
        assert report.rank_constant
        assert len(report.argmin) == 2

    def test_gapless_model_flagged(self):
        model = build_builtin("ssh", {"t": 1.0, "tp": 1.0})
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, (16,))
        report = gap_check(fam, g)
        assert report.gapless
        assert report.min_gap < 1e-12
        assert report.argmin == (-0.5,)

    def test_threshold_is_respected(self):
        model = build_builtin("haldane", {"M": 0.3})
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, (8, 8))
        strict = gap_check(fam, g, threshold=10.0)
        assert strict.gapless

    def test_near_closing_dip_located_at_k_point(self):
        # haldane at the critical mass: the fine-grid minimum sits near K
        crit = 3 * np.sqrt(3) * 0.2
        model = build_builtin("haldane", {"M": crit - 1e-3})
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, (24, 24))
        report = gap_check(fam, g)
        assert not report.gapless
        k = np.asarray(report.argmin)
        assert min(np.linalg.norm(k - np.array([1 / 3, -1 / 3])),
                   np.linalg.norm(k + np.array([1 / 3, -1 / 3]))) < 0.1

    @pytest.mark.parametrize(
        "entry, model, params, sizes",
        [
            (berry_curvature, "haldane", {"M": 3 * np.sqrt(3) * 0.2}, (12, 12)),
            (chern_number_plaquette, "haldane", {"M": 3 * np.sqrt(3) * 0.2}, (12, 12)),
            (smoothness_probe, "haldane", {"M": 3 * np.sqrt(3) * 0.2}, (12, 12)),
            (z2_boundary_winding, "kane_mele", {"lv": 3 * np.sqrt(3) * 0.06}, (12, 12)),
            (z2_wilson_flow, "kane_mele", {"lv": 3 * np.sqrt(3) * 0.06}, (12, 12)),
            (smooth_periodic_frame, "ssh", {"tp": 1.0}, (64,)),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_entry_points_refuse_gapless_families(self, entry, model, params, sizes):
        # each gap closes on a grid point: K = (1/3, -1/3) on 12^2, k = 1/2 for ssh
        model = build_builtin(model, params)
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, sizes)
        assert gap_check(fam, g).gapless
        with pytest.raises(GaplessError):
            entry(fam, g)


class TestFamilyAudit:
    def test_kane_mele_family_symmetries(self):
        model = build_builtin("kane_mele", {"lr": 0.05, "lv": 0.1})
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, (8, 8))
        audit = verify_projector_symmetries(fam, g)
        assert audit.verdicts["time_reversal"] is True
        assert audit.residuals["time_reversal"] < 1e-9
        assert audit.verdicts["tau_covariance"] is True
        assert audit.verdicts["kramers_pairing"] is True
        assert not audit.even_rank_violation

    def test_haldane_family_breaks_time_reversal(self):
        model = build_builtin("haldane")
        fam = ProjectorFamily.from_model(model)
        g = BrillouinGrid(model.lattice, (8, 8))
        audit = verify_projector_symmetries(fam, g)
        assert audit.verdicts["time_reversal"] is None

    def test_plane_wave_family_time_reversal(self):
        from blochtopo import Lattice, fiber_symmetry_ops

        lat = Lattice.from_basis(np.eye(1))
        basis = make_plane_wave_basis(lat, 4.5 * 2 * np.pi)
        pot = FourierPotential({(1,): 2.0, (-1,): 2.0})
        fam = ProjectorFamily.from_potential(pot, basis, BandSelection.lowest(1))
        g = BrillouinGrid(lat, (8,))
        audit = verify_projector_symmetries(fam, g)
        assert audit.verdicts["time_reversal"] is True
        assert audit.residuals["time_reversal"] < 1e-9

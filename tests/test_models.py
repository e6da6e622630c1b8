"""Tight-binding model zoo.

Every builtin is audited against its own declared symmetries, and each
model's gap-closing locus is pinned by a closed form frozen here: the SSH
spectrum, the Haldane and Kane-Mele Dirac masses at the K point, and the
Wilson-Dirac mass inversions. These formulas were derived by hand from the
small Bloch matrices and act as oracles for the builders.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochtopo import (
    BandSelection,
    BrillouinGrid,
    HermiticityError,
    Lattice,
    ProjectorFamily,
    UnknownModelError,
    bloch_hamiltonian,
    build_builtin,
    load_model,
    save_model,
    verify_model_symmetries,
)
from blochtopo.core import SpaceReflection, TimeReversal
from blochtopo.models import (
    BUILTIN_DEFAULTS,
    HoppingModel,
    bloch_hamiltonian_batch,
    exact_symmetry_residuals,
)
from blochtopo.projectors import gap_check, verify_projector_symmetries

SQ3 = np.sqrt(3.0)


def grid_for(model, n=8):
    return BrillouinGrid(model.lattice, (n,) * model.lattice.dim)


class TestBuiltinCatalog:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(UnknownModelError) as err:
            build_builtin("shh")
        assert "ssh" in str(err.value)

    def test_unknown_parameter_named(self):
        with pytest.raises(UnknownModelError) as err:
            build_builtin("ssh", {"tprime": 0.4})
        assert "tprime" in str(err.value)

    def test_defaults_round_trip(self):
        for name, defaults in BUILTIN_DEFAULTS.items():
            model = build_builtin(name)
            assert model.params == pytest.approx(defaults)

    def test_every_builtin_passes_its_own_audit(self):
        for name in BUILTIN_DEFAULTS:
            model = build_builtin(name)
            audit = verify_model_symmetries(model, grid_for(model, 6))
            for key, verdict in audit.verdicts.items():
                assert verdict in (True, None), f"{name}: {key} fails its audit"
            for res in (audit.tr_residual, audit.sr_residual, audit.tau_residual):
                assert res is None or res < 1e-10


class TestBlochHamiltonian:
    def test_hermitian_at_random_points(self):
        rng = np.random.default_rng(21)
        for name in BUILTIN_DEFAULTS:
            model = build_builtin(name)
            for _ in range(10):
                k = rng.uniform(-0.5, 0.5, size=model.lattice.dim)
                h = bloch_hamiltonian(model, k)
                assert np.allclose(h, h.conj().T, atol=1e-13)

    def test_periodicity_in_reduced_coordinates(self):
        model = build_builtin("haldane")
        k = np.array([0.21, -0.37])
        h1 = bloch_hamiltonian(model, k)
        h2 = bloch_hamiltonian(model, k + np.array([1.0, -2.0]))
        assert np.allclose(h1, h2, atol=1e-12)

    def test_batch_matches_loop(self):
        model = build_builtin("kane_mele", {"lr": 0.05, "lv": 0.1})
        g = grid_for(model, 6)
        batch = bloch_hamiltonian_batch(model, g.reduced)
        for i, k in enumerate(g.reduced):
            assert np.allclose(batch[i], bloch_hamiltonian(model, k), atol=1e-13)

    def test_nonhermitian_hoppings_rejected(self):
        model = build_builtin("ssh")
        bad = dict(model.hoppings)
        bad[(0,)] = bad[(0,)] + np.array([[0, 0.1], [0, 0]])
        with pytest.raises(HermiticityError):
            type(model)(
                lattice=model.lattice,
                fiber_dim=2,
                n_occ=1,
                hoppings=bad,
            )


class TestSshSpectrum:
    def test_matches_closed_form(self):
        # two flat bands at +-|t + tp e^{-i 2 pi k}|
        rng = np.random.default_rng(22)
        for _ in range(20):
            t, tp = rng.uniform(0.2, 2.0, size=2)
            model = build_builtin("ssh", {"t": t, "tp": tp})
            for k in rng.uniform(-0.5, 0.5, size=5):
                e = np.linalg.eigvalsh(bloch_hamiltonian(model, [k]))
                mag = abs(t + tp * np.exp(-2j * np.pi * k))
                assert np.allclose(e, [-mag, mag], atol=1e-12)

    def test_gapless_exactly_at_equal_hoppings(self):
        e = np.linalg.eigvalsh(
            bloch_hamiltonian(build_builtin("ssh", {"t": 1.0, "tp": 1.0}), [-0.5])
        )
        assert abs(e[1] - e[0]) < 1e-14


class TestHaldaneMass:
    def test_k_point_gap(self):
        # Dirac mass at K is M - 3 sqrt(3) t2 sin(phi)
        K = np.array([1 / 3, -1 / 3])
        for phi in (np.pi / 2, -np.pi / 2, 0.7):
            for M in (0.0, 0.3, 1.2):
                model = build_builtin("haldane", {"t1": 1, "t2": 0.2, "phi": phi, "M": M})
                e = np.linalg.eigvalsh(bloch_hamiltonian(model, K))
                mass = M - 3 * SQ3 * 0.2 * np.sin(phi)
                assert abs((e[1] - e[0]) - 2 * abs(mass)) < 1e-10

    def test_time_reversal_only_at_special_phases(self):
        for phi, has_tr in ((0.0, True), (np.pi, True), (np.pi / 2, False), (1.1, False)):
            model = build_builtin("haldane", {"phi": phi, "M": 0.1})
            assert (model.time_reversal is not None) == has_tr
            if has_tr:
                assert model.time_reversal.sign == +1


class TestKaneMele:
    def test_k_point_gap_without_rashba(self):
        # middle levels at K sit at +-(3 sqrt(3) lso - lv)
        rng = np.random.default_rng(23)
        K = np.array([1 / 3, -1 / 3])
        for _ in range(10):
            lso = rng.uniform(0.02, 0.1)
            lv = rng.uniform(0.0, 0.6)
            model = build_builtin("kane_mele", {"t": 1, "lso": lso, "lr": 0, "lv": lv})
            e = np.linalg.eigvalsh(bloch_hamiltonian(model, K))
            assert abs((e[2] - e[1]) - 2 * abs(3 * SQ3 * lso - lv)) < 1e-10

    def test_rashba_shifts_the_transition_quadratically(self):
        # with the geometric-bond Rashba the K gap closes at
        # lv = D - 3 lr^2 / (4 D), D = 3 sqrt(3) lso
        from scipy.optimize import minimize_scalar

        K = np.array([1 / 3, -1 / 3])
        lso, lr = 0.06, 0.05
        d = 3 * SQ3 * lso

        def gap(lv):
            model = build_builtin("kane_mele", {"t": 1, "lso": lso, "lr": lr, "lv": lv})
            e = np.linalg.eigvalsh(bloch_hamiltonian(model, K))
            return e[2] - e[1]

        res = minimize_scalar(gap, bounds=(0.25, 0.35), method="bounded",
                              options={"xatol": 1e-10})
        assert abs(res.x - (d - 3 * lr**2 / (4 * d))) < 1e-6
        assert res.fun < 1e-7

    def test_fermionic_time_reversal_always_declared(self):
        for params in ({}, {"lr": 0.05}, {"lv": 0.4}, {"lr": 0.03, "lv": 0.2}):
            model = build_builtin("kane_mele", params)
            assert model.time_reversal is not None
            assert model.time_reversal.sign == -1

    def test_reflection_broken_by_rashba_and_staggering(self):
        assert build_builtin("kane_mele").space_reflection is not None
        assert build_builtin("kane_mele", {"lr": 0.05}).space_reflection is None
        assert build_builtin("kane_mele", {"lv": 0.1}).space_reflection is None

    def test_audit_with_rashba(self):
        model = build_builtin("kane_mele", {"lr": 0.05, "lv": 0.1})
        audit = verify_model_symmetries(model, grid_for(model, 6))
        assert audit.verdicts["time_reversal"] is True
        assert audit.verdicts["space_reflection"] is None
        assert audit.spectrum_parity < 1e-10


class TestBhz:
    def test_gap_closes_at_zero_mass(self):
        gamma = np.zeros(2)
        for M, gapped in ((-0.5, True), (0.5, True), (0.0, False)):
            model = build_builtin("bhz", {"M": M})
            e = np.linalg.eigvalsh(bloch_hamiltonian(model, gamma))
            assert ((e[2] - e[1]) > 0.1) == gapped

    def test_kramers_degenerate_spectrum(self):
        # fermionic TR with [theta, H(k)] compatible: bands pair at TRIMs
        model = build_builtin("bhz", {"M": -0.5})
        for trim in ([0.0, 0.0], [-0.5, 0.0], [0.0, -0.5], [-0.5, -0.5]):
            e = np.linalg.eigvalsh(bloch_hamiltonian(model, trim))
            assert abs(e[0] - e[1]) < 1e-12 and abs(e[2] - e[3]) < 1e-12


class TestWilsonDirac3d:
    def test_mass_inversion_points(self):
        # band touching at the eight TRIMs happens at m in {-3,-1,1,3}
        for m, gapped in ((-2.0, True), (-4.0, True), (-3.0, False), (-1.0, False),
                          (1.0, False), (3.0, False), (0.5, True)):
            model = build_builtin("wilson_dirac_3d", {"m": m})
            gaps = []
            for trim in np.ndindex(2, 2, 2):
                k = -0.5 * np.array(trim)
                e = np.linalg.eigvalsh(bloch_hamiltonian(model, k))
                gaps.append(e[2] - e[1])
            assert (min(gaps) > 0.1) == gapped

    def test_fermionic_and_reflection_symmetric(self):
        model = build_builtin("wilson_dirac_3d")
        audit = verify_model_symmetries(model, grid_for(model, 4))
        assert audit.verdicts["time_reversal"] is True
        assert audit.verdicts["space_reflection"] is True
        assert audit.tr_residual < 1e-12


class TestSerialization:
    def test_round_trip_every_builtin(self, tmp_path):
        for name in BUILTIN_DEFAULTS:
            model = build_builtin(name)
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            back = load_model(path)
            assert back.fiber_dim == model.fiber_dim
            assert back.n_occ == model.n_occ
            assert np.allclose(back.lattice.basis, model.lattice.basis)
            assert set(back.hoppings) == set(model.hoppings)
            for r, mat in model.hoppings.items():
                assert np.allclose(back.hoppings[r], mat, atol=1e-15)
            k = np.full(model.lattice.dim, 0.137)
            assert np.allclose(
                bloch_hamiltonian(back, k), bloch_hamiltonian(model, k), atol=1e-14
            )

    def test_reloaded_model_keeps_symmetries(self, tmp_path):
        model = build_builtin("kane_mele", {"lr": 0.05, "lv": 0.1})
        path = tmp_path / "km.json"
        save_model(model, path)
        back = load_model(path)
        assert back.time_reversal is not None
        assert back.time_reversal.sign == -1
        assert np.allclose(back.time_reversal.unitary, model.time_reversal.unitary)


class TestExactSymmetryResiduals:
    CASES = [(name, {}) for name in sorted(BUILTIN_DEFAULTS)] + [
        ("kane_mele", {"lr": 0.05, "lv": 0.1}),
        ("haldane", {"phi": 0.0, "M": 0.4}),
        ("bhz", {"C": 0.3, "D": 0.1, "M": -1.5}),
        ("wilson_dirac_3d", {"m": -4.0}),
    ]

    @pytest.mark.parametrize("name,params", CASES)
    def test_builtin_declared_symmetries_are_exact(self, name, params):
        model = build_builtin(name, params)
        res = exact_symmetry_residuals(model, model.time_reversal, model.space_reflection)
        declared = {
            "time_reversal": model.time_reversal,
            "space_reflection": model.space_reflection,
        }
        assert any(op is not None for op in declared.values())
        for key, op in declared.items():
            if op is None:
                assert res[key] is None
            else:
                assert res[key][0] == 0.0

    def test_undeclared_operator_is_measured(self):
        # haldane's flux breaks plain conjugation: each of the six
        # second-neighbour offsets carries a defect of norm 2 t2 sin(phi)
        model = build_builtin("haldane", {"t2": 0.2, "phi": np.pi / 2})
        conjugation = TimeReversal(np.eye(2), +1)
        residual, worst = exact_symmetry_residuals(model, conjugation)["time_reversal"]
        assert residual == pytest.approx(6 * 2 * 0.2)
        assert worst in model.hoppings and sum(map(abs, worst)) > 0

    def test_reflection_maps_r_to_minus_r(self):
        # swapping the sublattices of a chain with t != tp is still a symmetry
        # (it maps R to -R); the identity is not
        model = build_builtin("ssh", {"t": 1.0, "tp": 0.5})
        swap = exact_symmetry_residuals(model, None, model.space_reflection)
        assert swap["space_reflection"][0] == 0.0 and swap["time_reversal"] is None
        ident = exact_symmetry_residuals(model, None, SpaceReflection(np.eye(2)))
        assert ident["space_reflection"][0] == pytest.approx(2 * 0.5)

    def test_aliased_term_is_seen_where_the_grid_misses_it(self, aliased_model):
        res = exact_symmetry_residuals(aliased_model, aliased_model.time_reversal)
        residual, worst = res["time_reversal"]
        assert residual == pytest.approx(2.0, abs=1e-12)
        assert worst in {(16, 0), (-16, 0)}
        for n, grid_holds in ((16, True), (32, True), (18, False)):
            grid = BrillouinGrid(aliased_model.lattice, (n, n))
            audit = verify_model_symmetries(aliased_model, grid)
            assert audit.verdicts["time_reversal"] is grid_holds


# 1 (x) i sigma_y and a matrix it maps to itself under conjugation
_U = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
_A = np.kron(np.diag([1.0, -1.0]), np.eye(2))
_HALF_OFFSETS = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) > (0, 0)]


def _random_tr_model(seed, offsets, odd):
    """Random Hermitian hoppings, |R_mu| <= 2, symmetrized under U conj(.) U^dagger.

    ``odd`` adds odd * sin(2 pi k1) A, which time reversal maps to its negative.
    """
    rng = np.random.default_rng(seed)

    def draw():
        return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    h0 = draw()
    hoppings = {(0, 0): h0 + h0.conj().T}
    for r in offsets:
        mat = 0.5 * draw()
        hoppings[r] = mat
        hoppings[(-r[0], -r[1])] = mat.conj().T
    hoppings = {r: 0.5 * (h + _U @ h.conj() @ _U.conj().T) for r, h in hoppings.items()}
    if odd:
        zero = np.zeros((4, 4))
        hoppings[(1, 0)] = hoppings.get((1, 0), zero) - 0.5j * odd * _A
        hoppings[(-1, 0)] = hoppings.get((-1, 0), zero) + 0.5j * odd * _A
    return HoppingModel(
        lattice=Lattice.from_basis(np.eye(2)),
        fiber_dim=4,
        n_occ=2,
        hoppings=hoppings,
        time_reversal=TimeReversal(_U, -1),
    )


class TestExactAgreesWithGridAudit:
    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        offsets=st.lists(st.sampled_from(_HALF_OFFSETS), unique=True, max_size=4),
        odd=st.floats(0.2, 1.0),
    )
    def test_symmetrized_passes_and_odd_term_fails_both(self, seed, offsets, odd):
        grid = BrillouinGrid(Lattice.from_basis(np.eye(2)), (12, 12))
        model = _random_tr_model(seed, offsets, 0.0)
        family = ProjectorFamily.from_model(model, BandSelection.lowest(2))
        # P(k) is only well conditioned where the selected pair is separated
        assume(gap_check(family, grid).min_gap > 1e-3)
        residual, _ = exact_symmetry_residuals(model, model.time_reversal)["time_reversal"]
        assert residual <= 1e-12
        assert verify_projector_symmetries(family, grid).verdicts["time_reversal"] is True

        broken = _random_tr_model(seed, offsets, odd)
        residual, _ = exact_symmetry_residuals(broken, broken.time_reversal)["time_reversal"]
        assert residual > 1e-9 * broken.scale
        audit = verify_projector_symmetries(ProjectorFamily.from_model(broken), grid)
        assert audit.verdicts["time_reversal"] is False
        # the coefficient sum bounds the defect of H(k) at every k
        assert verify_model_symmetries(broken, grid).tr_residual <= residual + 1e-12

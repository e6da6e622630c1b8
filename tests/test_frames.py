"""Smooth frames, transport, Kramers pairs, and the two Z2 methods.

Independent anchors frozen in this file: an exactly solvable rank-1 family
whose transport holonomy has a closed form (the discrete error must fall
second order), the Kane-Mele/BHZ phase assignments from their mass
inversions, and full cross-agreement between the boundary-winding and
eigenphase-flow invariants, which share no code path beyond the projector
evaluator.
"""

import time
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest
from scipy.linalg import block_diag

from blochtopo import (
    BandSelection,
    BrillouinGrid,
    EvenRankError,
    ObstructionError,
    ProjectorFamily,
    SymmetryError,
    TauRep,
    build_builtin,
    effective_time_reversal,
    kramers_frame,
    parallel_transport,
    smooth_periodic_frame,
    z2_3d,
    z2_boundary_winding,
    z2_wilson_flow,
)
from blochtopo.core import TimeReversal
from blochtopo.frames import _circ_dist, _matching_steps, _wilson_phases
from blochtopo.models import HoppingModel, bloch_hamiltonian
from blochtopo.projectors import gap_check, verify_projector_symmetries
from blochtopo import Lattice, RefinementError


def km_family(lv, lr=0.05, lso=0.06, n=12):
    model = build_builtin("kane_mele", {"t": 1, "lso": lso, "lr": lr, "lv": lv})
    fam = ProjectorFamily.from_model(model)
    return fam, BrillouinGrid(model.lattice, (n, n))


def twisted_rank1_family(amp, beta):
    # u(t) = (cos(amp t), e^{i beta t} sin(amp t)); H = -u u^dagger
    def evaluator(points):
        ts = np.asarray(points, dtype=float)[:, 0]
        u = np.stack([np.cos(amp * ts), np.exp(1j * beta * ts) * np.sin(amp * ts)], axis=1)
        return -np.einsum("ki,kj->kij", u, np.conj(u))

    return ProjectorFamily(
        dim=1,
        fiber_dim=2,
        selection=BandSelection.lowest(1),
        evaluator=evaluator,
        tau=TauRep("trivial", 2),
    )


class TestParallelTransport:
    def test_holonomy_closed_form_and_second_order(self):
        amp, beta = 1.1, 0.8
        fam = twisted_rank1_family(amp, beta)
        u0 = np.array([[np.cos(0.0)], [0.0j]])
        # exact transported phase: exp(-i beta int_0^1 sin^2(amp t) dt)
        integral = 0.5 - np.sin(2 * amp) / (4 * amp)
        errs = []
        for steps in (64, 128, 256):
            path = np.linspace(0, 1, steps + 1)[:, None]
            out = parallel_transport(fam, u0, path)
            u_end = np.array([np.cos(amp), np.exp(1j * beta) * np.sin(amp)])
            phase = np.vdot(u_end, out.columns[-1][:, 0])
            errs.append(abs(phase - np.exp(-1j * beta * integral)))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)

    def test_columns_stay_orthonormal(self):
        fam, grid = km_family(0.1)
        path = np.array([(0.0, t) for t in np.linspace(-0.5, 0.5, 25)])
        start = fam.frames(path[:1])[0]
        out = parallel_transport(fam, start, path)
        for cols in out.columns:
            assert np.linalg.norm(cols.conj().T @ cols - np.eye(2)) < 1e-10
        assert out.diagnostics["max_step_distance"] < 0.5

    def test_transported_frame_spans_the_projectors(self):
        fam, _ = km_family(0.1)
        path = np.array([(t, 0.2) for t in np.linspace(0, 0.5, 21)])
        start = fam.frames(path[:1])[0]
        out = parallel_transport(fam, start, path)
        projs = fam.projectors(path)
        for cols, p in zip(out.columns, projs):
            assert np.linalg.norm(cols @ cols.conj().T - p) < 1e-10

    def test_coarse_path_between_distant_projectors_rejected(self):
        fam = twisted_rank1_family(np.pi / 2, 0.0)
        u0 = np.array([[1.0 + 0j], [0.0j]])
        with pytest.raises(RefinementError):
            parallel_transport(fam, u0, np.array([[0.0], [1.0]]))


class TestSmoothPeriodicFrame1d:
    def test_ssh_frame_properties(self):
        model = build_builtin("ssh", {"t": 1.0, "tp": 0.5})
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (32,))
        frame = smooth_periodic_frame(fam, grid)
        assert frame.flags["smooth"] is True
        assert frame.flags["tau_equivariant"] is True
        projs = fam.projectors(grid.reduced)
        rebuilt = np.einsum("kia,kja->kij", frame.columns, np.conj(frame.columns))
        assert np.max(np.abs(rebuilt - projs)) < 1e-10
        assert frame.diagnostics["closure_residual"] < 1e-10

    def test_derivative_stable_under_refinement(self):
        model = build_builtin("ssh", {"t": 1.0, "tp": 0.5})
        fam = ProjectorFamily.from_model(model)
        derivs = []
        for n in (32, 64, 128):
            frame = smooth_periodic_frame(fam, BrillouinGrid(model.lattice, (n,)))
            derivs.append(frame.diagnostics["max_discrete_derivative"])
        assert derivs[1] == pytest.approx(derivs[0], rel=0.1)
        assert derivs[2] == pytest.approx(derivs[1], rel=0.05)

    def test_random_gapped_two_band_models(self):
        rng = np.random.default_rng(51)
        lat = Lattice.from_basis(np.eye(1))
        built = 0
        while built < 6:
            blocks = {}
            h0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            blocks[(0,)] = (h0 + h0.conj().T) / 2
            h1 = 0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            blocks[(1,)] = h1
            blocks[(-1,)] = h1.conj().T
            model = HoppingModel(lattice=lat, fiber_dim=2, n_occ=1, hoppings=blocks)
            fine = np.linspace(-0.5, 0.5, 257)[:, None]
            evals = np.linalg.eigvalsh(
                np.stack([bloch_hamiltonian(model, k) for k in fine])
            )
            if np.min(evals[:, 1] - evals[:, 0]) < 0.3:
                continue
            built += 1
            fam = ProjectorFamily.from_model(model)
            frame = smooth_periodic_frame(fam, BrillouinGrid(lat, (64,)))
            assert frame.flags["smooth"] is True
            fine_frame = smooth_periodic_frame(fam, BrillouinGrid(lat, (128,)))
            a = frame.diagnostics["max_discrete_derivative"]
            b = fine_frame.diagnostics["max_discrete_derivative"]
            assert b < 1.5 * a + 1e-9

    def test_chern_obstruction_raised(self):
        model = build_builtin("haldane")
        fam = ProjectorFamily.from_model(model)
        with pytest.raises(ObstructionError):
            smooth_periodic_frame(fam, BrillouinGrid(model.lattice, (12, 12)))

    def test_trivial_2d_family_gets_a_frame(self):
        model = build_builtin("haldane", {"M": 1.2})
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (12, 12))
        frame = smooth_periodic_frame(fam, grid)
        projs = fam.projectors(grid.reduced)
        rebuilt = np.einsum("kia,kja->kij", frame.columns, np.conj(frame.columns))
        assert np.max(np.abs(rebuilt - projs)) < 1e-9


class TestKramersStructure:
    TRIMS = [np.array(t) for t in ((0.0, 0.0), (-0.5, 0.0), (0.0, -0.5), (-0.5, -0.5))]

    def test_effective_operator_squares_to_minus_one(self):
        fam, _ = km_family(0.1)
        for trim in self.TRIMS:
            theta_eff = effective_time_reversal(fam, trim)
            u = theta_eff.unitary
            assert np.linalg.norm(u @ np.conj(u) + np.eye(4)) < 1e-12

    def test_trim_spectra_are_kramers_paired(self):
        model = build_builtin("kane_mele", {"lr": 0.05, "lv": 0.1})
        for trim in self.TRIMS:
            e = np.linalg.eigvalsh(bloch_hamiltonian(model, trim))
            assert abs(e[0] - e[1]) < 1e-10
            assert abs(e[2] - e[3]) < 1e-10

    def test_kramers_frame_pairing_residual(self):
        from blochtopo import reshuffle_matrix

        fam, _ = km_family(0.1)
        eps = reshuffle_matrix(2, -1)
        for trim in self.TRIMS:
            p = fam.projector(trim)
            theta_eff = effective_time_reversal(fam, trim)
            phi = kramers_frame(p, theta_eff).single()
            assert np.linalg.norm(phi.conj().T @ phi - np.eye(2)) < 1e-12
            assert np.linalg.norm(phi @ phi.conj().T - p) < 1e-10
            paired = theta_eff.apply(phi) @ eps
            assert np.linalg.norm(phi - paired) < 1e-10

    def test_odd_rank_rejected(self):
        fam, _ = km_family(0.1)
        theta_eff = effective_time_reversal(fam, self.TRIMS[0])
        rank1 = np.zeros((4, 4), dtype=complex)
        rank1[0, 0] = 1.0
        with pytest.raises(EvenRankError):
            kramers_frame(rank1, theta_eff)


class TestZ2TwoDimensional:
    CASES = [
        ("kane_mele", {"t": 1, "lso": 0.06, "lr": 0.05, "lv": 0.1}, 1),
        ("kane_mele", {"t": 1, "lso": 0.06, "lr": 0.05, "lv": 0.5}, 0),
        ("kane_mele", {"t": 1, "lso": 0.06, "lr": 0.0, "lv": 0.0}, 1),
        ("bhz", {"M": -0.5}, 1),
        ("bhz", {"M": 0.5}, 0),
    ]

    def test_both_methods_on_reference_points(self):
        for name, params, want in self.CASES:
            model = build_builtin(name, params)
            fam = ProjectorFamily.from_model(model)
            grid = BrillouinGrid(model.lattice, (12, 12))
            bw = z2_boundary_winding(fam, grid)
            wf = z2_wilson_flow(fam, grid)
            assert bw.delta == want, f"{name} {params}: winding {bw.delta} != {want}"
            assert wf.delta == want, f"{name} {params}: flow {wf.delta} != {want}"
            assert bw.delta == bw.winding % 2
            assert bw.residuals["winding_residual"] < 1e-6
            assert bw.residuals["unitarity_defect"] < 1e-9
            assert abs(bw.residuals["flux_mismatch"]) < 1e-9

    def test_grid_refinement_stability(self):
        fam, _ = km_family(0.1)
        deltas = set()
        for n in (12, 16, 24):
            grid = BrillouinGrid(fam.lattice, (n, n))
            deltas.add(z2_boundary_winding(fam, grid).delta)
            deltas.add(z2_wilson_flow(fam, grid).delta)
        assert deltas == {1}

    def test_gauge_randomization_stability(self):
        fam, grid = km_family(0.1)
        deltas = {z2_boundary_winding(fam, grid, gauge_seed=s).delta for s in range(6)}
        assert deltas == {1}

    def test_flow_diagnostics(self):
        fam, grid = km_family(0.1)
        res = z2_wilson_flow(fam, grid)
        assert res.method == "wilson_flow"
        assert res.residuals["max_step_phase"] < np.pi / 2
        assert res.flow is not None

    def test_batched_wilson_rows_match_single_rows(self):
        # the grid rows are computed in one batch, bisection rows one at a time
        fam, grid = km_family(0.1)
        n1, n2 = grid.sizes
        k2s = np.array([j / n2 for j in range(n2 // 2 + 1)] + [0.5 / n2])
        batched = _wilson_phases(fam, k2s, n1)
        single = np.stack([_wilson_phases(fam, [k2], n1)[0] for k2 in k2s])
        assert batched.shape == (len(k2s), 2)
        assert np.max(np.abs(batched - single)) < 1e-14

    def test_mini_sweep_flips_once(self):
        deltas = []
        for lv in np.linspace(0.2, 0.45, 6):
            fam, grid = km_family(float(lv))
            bw = z2_boundary_winding(fam, grid).delta
            assert bw == z2_wilson_flow(fam, grid).delta
            deltas.append(bw)
        flips = sum(a != b for a, b in zip(deltas, deltas[1:]))
        assert flips == 1
        assert deltas[0] == 1 and deltas[-1] == 0

    def test_bosonic_family_rejected(self):
        model = build_builtin("haldane", {"phi": 0.0, "M": 0.4})
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (12, 12))
        with pytest.raises(SymmetryError):
            z2_boundary_winding(fam, grid)
        with pytest.raises(SymmetryError):
            z2_wilson_flow(fam, grid)

    def test_one_dimensional_family_rejected(self):
        model = build_builtin("ssh")
        fam = ProjectorFamily.from_model(model)
        with pytest.raises(ValueError):
            z2_boundary_winding(fam, BrillouinGrid(model.lattice, (12,)))


def _all_assignments(prev, nxt):
    """(sum |step|, max |step|, perm, steps) for every assignment of ``prev`` onto ``nxt``."""
    wrapped = np.mod(prev + np.pi, 2 * np.pi) - np.pi
    rows = []
    for perm in permutations(range(len(prev))):
        steps = _circ_dist(nxt[list(perm)], wrapped)
        rows.append((float(np.sum(np.abs(steps))), float(np.max(np.abs(steps))), perm, steps))
    return rows


def _matching_cases(rng, count):
    """Seeded (prev, sorted nxt) pairs, m <= 6, cycling through the hard shapes."""
    for case in range(count):
        m = 1 if case % 10 == 0 else int(rng.integers(2, 7))
        shape = case % 4
        # tracked phases are unwrapped, so they may sit several periods away
        prev = rng.uniform(-np.pi, np.pi, m) + 2 * np.pi * rng.integers(-2, 3, m)
        if shape == 0:  # every band moves the same way
            moved = prev + rng.uniform(-1.5, 1.5)
        elif shape == 1:  # degenerate (Kramers) pairs
            prev = np.repeat(rng.uniform(-np.pi, np.pi, (m + 1) // 2), 2)[:m]
            moved = prev + rng.normal(0.0, 0.3, m)
        elif shape == 2:  # phases on the +-pi cut
            prev = rng.choice([np.pi, -np.pi, 0.0, 3 * np.pi], m)
            moved = prev + rng.choice([0.0, 0.05, -0.05], m)
        else:  # unrelated rows
            moved = rng.uniform(-np.pi, np.pi, m)
        yield prev, np.sort(np.angle(np.exp(1j * moved)))


class TestWilsonFlowMatching:
    def test_shift_rule_matches_brute_force(self):
        for prev, nxt in _matching_cases(np.random.default_rng(27), 400):
            rows = _all_assignments(prev, nxt)
            best = min(total for total, *_ in rows)
            tied_max = min(largest for total, largest, *_ in rows if total <= best + 1e-9)
            steps = _matching_steps(prev, nxt)
            assert abs(float(np.sum(np.abs(steps))) - best) <= 1e-12, (prev, nxt)
            assert abs(float(np.max(np.abs(steps))) - tied_max) <= 1e-12, (prev, nxt)
            wrapped = np.mod(prev + np.pi, 2 * np.pi) - np.pi
            landed = np.mod(wrapped + steps + np.pi, 2 * np.pi) - np.pi
            assert np.allclose(np.sort(landed), np.sort(np.mod(nxt + np.pi, 2 * np.pi) - np.pi))

    def test_near_coincident_phases_tie_within_tolerance(self):
        # two tracked bands 1e-12 apart: the assignments that swap their
        # targets differ by ~1e-12 in the sum, so they tie and the smaller
        # largest step wins at a total within the 1e-9 tie tolerance
        prev = np.array([np.pi - 1e-12, np.pi, 0.0])
        nxt = np.sort(np.angle(np.exp(1j * (prev + np.array([0.2, -0.3, 0.1])))))
        rows = _all_assignments(prev, nxt)
        best = min(total for total, *_ in rows)
        steps = _matching_steps(prev, nxt)
        assert float(np.sum(np.abs(steps))) <= best + 1e-9
        assert float(np.max(np.abs(steps))) == pytest.approx(
            min(largest for total, largest, *_ in rows if total <= best + 1e-9), abs=1e-12
        )

    def test_uniform_shift_takes_the_smaller_largest_step(self):
        # both bands move up by 0.9; the swapped assignment (steps 1.0 and
        # 0.8) ties in exact arithmetic, and its float sum is the smaller one,
        # so the (sum, max, perm) order of an exhaustive search picks it
        prev, nxt = np.array([0.0, 0.1]), np.array([0.9, 1.0])
        by_float_key = min(_all_assignments(prev, nxt), key=lambda row: row[:3])
        assert by_float_key[1] == pytest.approx(1.0)
        assert np.allclose(_matching_steps(prev, nxt), [0.9, 0.9])

    def test_single_band(self):
        steps = _matching_steps(np.array([3 * np.pi - 0.1]), np.array([-np.pi + 0.1]))
        assert np.allclose(steps, [0.2])


def _direct_sum(models):
    """Block-diagonal sum of four-band models on the first one's lattice."""
    offsets = sorted(set().union(*(m.hoppings for m in models)))
    zero = np.zeros((4, 4), dtype=complex)
    return HoppingModel(
        lattice=models[0].lattice,
        fiber_dim=sum(m.fiber_dim for m in models),
        n_occ=sum(m.n_occ for m in models),
        hoppings={r: block_diag(*(m.hoppings.get(r, zero) for m in models)) for r in offsets},
        time_reversal=TimeReversal(block_diag(*(m.time_reversal.unitary for m in models)), -1),
    )


class TestZ2DirectSums:
    # (params, delta) per copy: Kane-Mele is nontrivial for lv < 3 sqrt(3) lso
    # (lso = 0.06), BHZ for -4B < M < 0 (B = 1)
    COPIES = {
        "kane_mele": [({"lv": 0.1}, 1), ({"lv": 0.5}, 0), ({"lv": 0.15}, 1),
                      ({"lv": 0.45}, 0), ({"lv": 0.05}, 1), ({"lv": 0.6}, 0)],
        "bhz": [({"M": -1.0}, 1), ({"M": 1.0}, 0), ({"M": -1.5}, 1),
                ({"M": 0.8}, 0), ({"M": -0.7}, 1), ({"M": 1.2}, 0)],
    }
    # rank 12 at 16^2 takes ~2 s on a 2-vCPU host; trying all 12! band
    # permutations per row step would take hours
    SECONDS = 30.0

    @pytest.mark.parametrize(
        "name,copies", [("kane_mele", 2), ("bhz", 3), ("kane_mele", 6), ("bhz", 6)],
        ids=["kane_mele-rank4", "bhz-rank6", "kane_mele-rank12", "bhz-rank12"],
    )
    def test_both_methods_give_the_summed_index(self, name, copies):
        chosen = self.COPIES[name][:copies]
        model = _direct_sum([build_builtin(name, params) for params, _ in chosen])
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (16, 16))
        want = sum(delta for _, delta in chosen) % 2
        start = time.perf_counter()
        winding = z2_boundary_winding(fam, grid)
        flow = z2_wilson_flow(fam, grid)
        elapsed = time.perf_counter() - start
        assert flow.flow["phases"].shape[1] == 2 * copies
        assert winding.delta == flow.delta == want
        assert elapsed < self.SECONDS


class TestZ2ThreeDimensional:
    def test_strong_phase_quadruple(self):
        model = build_builtin("wilson_dirac_3d", {"m": -2.0})
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (8, 8, 8))
        res = z2_3d(fam, grid)
        assert res.quadruple == (1, 0, 0, 0)
        assert res.strong == 1
        assert res.consistent
        assert len(res.plane_results) == 6

    def test_trivial_phase_all_zero(self):
        model = build_builtin("wilson_dirac_3d", {"m": -4.0})
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (8, 8, 8))
        res = z2_3d(fam, grid)
        assert res.quadruple == (0, 0, 0, 0)
        assert res.strong == 0
        assert res.consistent

    def test_strong_index_formula_per_axis(self):
        # delta(k_j = 0) + delta(k_j = 1/2) has the same parity for every
        # axis j; that shared parity is the strong index
        model = build_builtin("wilson_dirac_3d", {"m": -2.0})
        fam = ProjectorFamily.from_model(model)
        grid = BrillouinGrid(model.lattice, (8, 8, 8))
        res = z2_3d(fam, grid)
        for axis in range(3):
            total = (
                res.plane_results[(axis, 0.0)].delta
                + res.plane_results[(axis, -0.5)].delta
            ) % 2
            assert total == res.strong

    def test_json_round_trip_structure(self):
        import json

        model = build_builtin("wilson_dirac_3d", {"m": -2.0})
        fam = ProjectorFamily.from_model(model)
        res = z2_3d(fam, BrillouinGrid(model.lattice, (8, 8, 8)))
        doc = json.loads(json.dumps(res.to_json()))
        assert doc["indices"]["delta_1_0"] == 1
        assert doc["strong"] == 1


def _off_plane_breaking(amp=0.3):
    """wilson_dirac_3d plus amp sin(2 pi k1) sin(2 pi k2) sin(2 pi k3) A.

    The product is odd in k and A is even under the declared time reversal,
    so the term breaks it, yet it vanishes on all six planes k_j in {0, 1/2}.
    """
    base = build_builtin("wilson_dirac_3d")
    a = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    hoppings = dict(base.hoppings)
    for r in product((-1, 1), repeat=3):
        hoppings[r] = amp * (1j / 8) * np.prod(r) * a
    return HoppingModel(base.lattice, 4, 2, hoppings, base.time_reversal)


class TestExactTimeReversal:
    @pytest.mark.parametrize("n", [16, 32])
    def test_aliased_model_refused_where_the_grid_misses_it(self, aliased_model, n):
        fam = ProjectorFamily.from_model(aliased_model)
        grid = BrillouinGrid(aliased_model.lattice, (n, n))
        for method in (z2_boundary_winding, z2_wilson_flow):
            with pytest.raises(SymmetryError, match=r"hopping data.*R=\(-16, 0\)"):
                method(fam, grid)

    def test_hopping_families_skip_the_grid_audit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid audit ran on a hopping family")

        monkeypatch.setattr("blochtopo.frames.verify_projector_symmetries", refuse)
        fam, grid = km_family(0.1)
        assert z2_boundary_winding(fam, grid).delta == z2_wilson_flow(fam, grid).delta == 1

    def test_other_families_keep_the_grid_audit(self, aliased_model):
        # without hopping data the check samples P(k), so the alias hides the
        # breaking term at 16 points per axis and shows it at 18
        fam = replace(ProjectorFamily.from_model(aliased_model), source=None)
        assert z2_wilson_flow(fam, BrillouinGrid(aliased_model.lattice, (16, 16))).delta == 1
        with pytest.raises(SymmetryError, match="time-reversal audit failed"):
            z2_wilson_flow(fam, BrillouinGrid(aliased_model.lattice, (18, 18)))

    def test_odd_rank_refused_after_both_checks_pass(self):
        # the exact check's tolerance is relative to max|H_R|: a TR-even term
        # 1e4 (cos(32 pi k1) - 1), zero on a 16^2 grid, raises it to 1e-5, so a
        # 1e-6 spin Zeeman term passes while splitting the Kramers pairs by more
        # than the gap threshold, and one band passes the gap check
        base = build_builtin("kane_mele", {"lv": 0.1, "lr": 0.05})
        hoppings = dict(base.hoppings)
        zeeman = 1e-6 * np.kron(np.eye(2), np.diag([1.0, -1.0]))
        hoppings[(0, 0)] = hoppings[(0, 0)] - 1e4 * np.eye(4) + zeeman
        hoppings[(16, 0)] = hoppings[(-16, 0)] = 0.5e4 * np.eye(4)
        model = HoppingModel(base.lattice, 4, 2, hoppings, base.time_reversal)
        fam = ProjectorFamily.from_model(model, BandSelection.lowest(1))
        grid = BrillouinGrid(model.lattice, (16, 16))
        assert not gap_check(fam, grid).gapless
        with pytest.raises(EvenRankError):
            z2_wilson_flow(fam, grid)

    def test_breaking_off_the_invariant_planes_refused_in_3d(self):
        model = _off_plane_breaking()
        fam = ProjectorFamily.from_model(model)
        sub = fam.restrict(0, 0.0)
        assert sub.time_reversal is not None and sub.source is model
        # on the plane itself the term vanishes, so a grid audit passes there
        audit = verify_projector_symmetries(sub, sub.make_grid((8, 8)))
        assert audit.verdicts["time_reversal"] is True
        with pytest.raises(SymmetryError, match="hopping data"):
            z2_3d(fam, BrillouinGrid(model.lattice, (8, 8, 8)))

"""Tight-binding Bloch Hamiltonian families k -> H(k) with symmetry data.

Periodic gauge throughout: H(k) = sum_R exp(+i 2 pi k.R) H_R with R the cell
offset of the hop and k in reduced coordinates, folded before evaluation.
Orbital positions never enter the phases, so dual-lattice translations act
trivially on the fiber and Wilson loops need no boundary twist.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (
    KPoint,
    Lattice,
    SpaceReflection,
    TauRep,
    TimeReversal,
    canonical_reduced,
)
from .errors import HermiticityError, SymmetryError, UnknownModelError
from .linalg import operator_norm

__all__ = [
    "HoppingModel",
    "ModelAudit",
    "bloch_hamiltonian",
    "bloch_hamiltonian_batch",
    "build_builtin",
    "ssh",
    "haldane",
    "kane_mele",
    "bhz",
    "wilson_dirac_3d",
    "load_model",
    "save_model",
    "verify_model_symmetries",
    "exact_symmetry_residuals",
    "BUILTIN_DEFAULTS",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _hopping_scale(hoppings):
    """max(1, max_R max|H_R|): the magnitude hopping tolerances are relative to."""
    return max(1.0, max((float(np.max(np.abs(m))) for m in hoppings.values()), default=1.0))


@dataclass(frozen=True, eq=False)
class HoppingModel:
    """Finite-range hopping model on a Bravais lattice.

    hoppings maps integer cell offsets R to complex fiber matrices H_R;
    Hermiticity H_{-R} = H_R^dagger is validated on construction. tau is
    always the trivial representation for this type (periodic gauge).
    """

    lattice: Lattice
    fiber_dim: int
    n_occ: int
    hoppings: dict
    time_reversal: TimeReversal = None
    space_reflection: SpaceReflection = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.n_occ < self.fiber_dim:
            raise ValueError(f"need 0 < n_occ < fiber_dim, got {self.n_occ} of {self.fiber_dim}")
        d = self.lattice.dim
        clean = {}
        for r, mat in self.hoppings.items():
            r = tuple(int(x) for x in r)
            if len(r) != d:
                raise ValueError(f"hopping offset {r} does not match lattice dimension {d}")
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (self.fiber_dim, self.fiber_dim):
                raise ValueError(f"hopping matrix at {r} has shape {mat.shape}")
            clean[r] = mat
        scale = _hopping_scale(clean)
        for r, mat in clean.items():
            neg = tuple(-x for x in r)
            if neg not in clean:
                raise HermiticityError(f"hopping at {r} has no partner at {neg}")
            if np.max(np.abs(clean[neg] - mat.conj().T)) > 1e-12 * scale:
                raise HermiticityError(f"H(-R) != H(R)^dagger for R = {r}")
        object.__setattr__(self, "hoppings", clean)
        for op in (self.time_reversal, self.space_reflection):
            if op is not None and op.fiber_dim != self.fiber_dim:
                raise SymmetryError("symmetry operator dimension does not match fiber_dim")

    @property
    def tau(self):
        return TauRep(kind="trivial", fiber_dim=self.fiber_dim)

    @property
    def dim(self):
        return self.lattice.dim

    @property
    def scale(self):
        return _hopping_scale(self.hoppings)

    def hopping_arrays(self):
        """(offsets, matrices) as stacked arrays in sorted offset order."""
        keys = sorted(self.hoppings.keys())
        rs = np.array(keys, dtype=float)
        mats = np.stack([self.hoppings[k] for k in keys])
        return rs, mats


def bloch_hamiltonian(model, k):
    """Evaluate H(k) = sum_R exp(i 2 pi k.R) H_R at one momentum.

    k may be a KPoint or a reduced-coordinate vector; it is folded into the
    canonical cell first, which makes H exactly periodic under dual-lattice
    shifts.
    """
    red = k.reduced if isinstance(k, KPoint) else k
    return bloch_hamiltonian_batch(model, np.asarray(red, dtype=float)[None, :])[0]


def bloch_hamiltonian_batch(model, reduced):
    """Stacked H(k) for an (npoints, d) array of reduced coordinates."""
    red = canonical_reduced(np.asarray(reduced, dtype=float))
    rs, mats = model.hopping_arrays()
    phases = np.exp(2j * np.pi * (red @ rs.T))
    return np.einsum("kr,rij->kij", phases, mats)


class _HopBuilder:
    """Accumulates hoppings with automatic Hermitian partners."""

    def __init__(self, fiber_dim):
        self.fiber_dim = fiber_dim
        self.h = {}

    def _blank(self, r):
        r = tuple(int(x) for x in r)
        if r not in self.h:
            self.h[r] = np.zeros((self.fiber_dim, self.fiber_dim), dtype=complex)
        return self.h[r]

    def add(self, amp, i, j, r):
        """Hop amplitude from orbital j in cell R to orbital i in cell 0."""
        r = tuple(int(x) for x in r)
        if i == j and all(x == 0 for x in r):
            raise ValueError("add onsite terms to the R = 0 block directly")
        self._blank(r)[i, j] += amp
        self._blank(tuple(-x for x in r))[j, i] += np.conj(amp)

    def add_block(self, mat, bi, bj, r, block=2):
        for a in range(block):
            for b in range(block):
                if mat[a, b] != 0:
                    self.add(mat[a, b], block * bi + a, block * bj + b, r)


def ssh(t=1.0, tp=0.5, n_occ=1):
    """Two-orbital 1d chain: intra-cell hop t, inter-cell hop tp.

    H(k) = [[0, t + tp e^{-i 2 pi k}], [t + tp e^{+i 2 pi k}, 0]].
    Gapped iff |t| != |tp|. Carries bosonic time reversal (plain conjugation)
    and the sublattice-swapping reflection.
    """
    b = _HopBuilder(2)
    b._blank((0,))
    if t != 0:
        b.add(t, 0, 1, (0,))
    if tp != 0:
        b.add(tp, 0, 1, (-1,))
    return HoppingModel(
        lattice=Lattice.from_basis([[1.0]]),
        fiber_dim=2,
        n_occ=n_occ,
        hoppings=b.h,
        time_reversal=TimeReversal(np.eye(2), +1),
        space_reflection=SpaceReflection(_SX),
        name="ssh",
        params={"t": t, "tp": tp},
    )


_HEX_BASIS = [[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]]  # columns a1, a2
_NN_OFFSETS = [(0, 0), (0, -1), (-1, 0)]  # A -> B cell offsets
_NNN_OFFSETS = [(1, 0), (-1, 1), (0, -1)]  # chirality-ordered second neighbors


def haldane(t1=1.0, t2=0.2, phi=np.pi / 2.0, M=0.0):
    """Honeycomb model with complex second-neighbor hops.

    Gap closes when |M| = 3 sqrt(3) |t2 sin(phi)|; inside that dome the lowest
    band carries |C| = 1. Bosonic time reversal is declared only when
    t2 sin(phi) vanishes, the A/B-swap reflection only when M = 0.
    """
    b = _HopBuilder(2)
    b._blank((0, 0))
    for r in _NN_OFFSETS:
        b.add(t1, 0, 1, r)
    for r in _NNN_OFFSETS:
        b.add(t2 * np.exp(1j * phi), 0, 0, r)
        b.add(t2 * np.exp(-1j * phi), 1, 1, r)
    b.h[(0, 0)][0, 0] += M
    b.h[(0, 0)][1, 1] += -M
    tr = TimeReversal(np.eye(2), +1) if abs(t2 * np.sin(phi)) < 1e-12 else None
    sr = SpaceReflection(_SX) if abs(M) < 1e-12 else None
    return HoppingModel(
        lattice=Lattice.from_basis(_HEX_BASIS),
        fiber_dim=2,
        n_occ=1,
        hoppings=b.h,
        time_reversal=tr,
        space_reflection=sr,
        name="haldane",
        params={"t1": t1, "t2": t2, "phi": phi, "M": M},
    )


def kane_mele(t=1.0, lso=0.06, lr=0.0, lv=0.0):
    """Honeycomb with spin: intrinsic spin-orbit lso, Rashba lr, staggering lv.

    Orbital order (A up, A down, B up, B down). Always carries fermionic time
    reversal; the A/B-swap reflection is declared only when lr = lv = 0
    (Rashba and staggering both break it). Quantum-spin-Hall phase for
    lv < 3 sqrt(3) lso (at small lr).
    """
    b = _HopBuilder(4)
    b._blank((0, 0))
    for r in _NN_OFFSETS:
        b.add_block(t * _I2, 0, 1, r)
    # the intrinsic term is a haldane phase of pi/2 per spin sector, with
    # uniform sign along the chirality-ordered offsets and opposite on B
    soc = 1j * lso * _SZ
    if lso != 0:
        for r in _NNN_OFFSETS:
            b.add_block(soc, 0, 0, r)
            b.add_block(-soc, 1, 1, r)
    if lr != 0:
        # Rashba couples spin to the geometric bond vector (s x d)_z; with a
        # unit lattice constant the three A->B bonds have length 1/sqrt(3)
        bonds = [
            (0.5, np.sqrt(3.0) / 6.0),
            (0.0, -1.0 / np.sqrt(3.0)),
            (-0.5, np.sqrt(3.0) / 6.0),
        ]
        for r, (dx, dy) in zip([(0, 0), (0, -1), (-1, 0)], bonds):
            b.add_block(1j * lr * (dy * _SX - dx * _SY), 0, 1, r)
    for i, v in enumerate((lv, lv, -lv, -lv)):
        if v != 0:
            b.h[(0, 0)][i, i] += v
    theta = TimeReversal(np.kron(_I2, 1j * _SY), -1)
    sr = SpaceReflection(np.kron(_SX, _I2)) if (abs(lr) < 1e-15 and abs(lv) < 1e-15) else None
    return HoppingModel(
        lattice=Lattice.from_basis(_HEX_BASIS),
        fiber_dim=4,
        n_occ=2,
        hoppings=b.h,
        time_reversal=theta,
        space_reflection=sr,
        name="kane_mele",
        params={"t": t, "lso": lso, "lr": lr, "lv": lv},
    )


def bhz(A=1.0, B=1.0, C=0.0, D=0.0, M=-0.5):
    """Four-band square-lattice model, two decoupled spin blocks.

    Orbital order (E up, H up, E down, H down); the down block is the complex
    conjugate of the up block. Band inversion (Z2 = 1 for the lower pair) for
    -8B < M < 0 at B > 0; M > 0 is trivial. Fermionic time reversal always;
    the orbital-parity reflection always holds.
    """
    onsite_up = (C + 4 * D) * _I2 + (M + 4 * B) * _SZ
    rx_up = -D * _I2 - B * _SZ - 0.5j * A * _SX
    ry_up = -D * _I2 - B * _SZ - 0.5j * A * _SY
    h = {}

    def put(r, up):
        full = np.zeros((4, 4), dtype=complex)
        full[:2, :2] = up
        full[2:, 2:] = np.conj(up)
        h[r] = full

    put((0, 0), onsite_up)
    put((1, 0), rx_up)
    put((-1, 0), rx_up.conj().T)
    put((0, 1), ry_up)
    put((0, -1), ry_up.conj().T)
    # reorder spin-outer: blocks already laid out as (up, down) with orbital inner
    theta = TimeReversal(np.kron(1j * _SY, _I2), -1)
    sr = SpaceReflection(np.kron(_I2, _SZ))
    return HoppingModel(
        lattice=Lattice.from_basis(np.eye(2)),
        fiber_dim=4,
        n_occ=2,
        hoppings=h,
        time_reversal=theta,
        space_reflection=sr,
        name="bhz",
        params={"A": A, "B": B, "C": C, "D": D, "M": M},
    )


def wilson_dirac_3d(m=-2.0):
    """Cubic-lattice four-band Dirac model with a Wilson mass.

    H(k) = sum_j sin(2 pi k_j) Gamma_j + (m + sum_j cos(2 pi k_j)) Gamma_0.
    Gapped except at m in {-3, -1, +1, +3}; m = -2 is the strong phase
    (index quadruple (1,0,0,0) in the k1 = 0 labeling), m = -4 is trivial.
    """
    g0 = np.kron(_SZ, _I2)
    gj = [np.kron(_SX, s) for s in (_SX, _SY, _SZ)]
    h = {(0, 0, 0): m * g0}
    for j in range(3):
        r = tuple(1 if i == j else 0 for i in range(3))
        mat = 0.5 * g0 - 0.5j * gj[j]
        h[r] = mat
        h[tuple(-x for x in r)] = mat.conj().T
    return HoppingModel(
        lattice=Lattice.from_basis(np.eye(3)),
        fiber_dim=4,
        n_occ=2,
        hoppings=h,
        time_reversal=TimeReversal(np.kron(_I2, 1j * _SY), -1),
        space_reflection=SpaceReflection(g0),
        name="wilson_dirac_3d",
        params={"m": m},
    )


BUILTIN_DEFAULTS = {
    "ssh": {"t": 1.0, "tp": 0.5},
    "haldane": {"t1": 1.0, "t2": 0.2, "phi": np.pi / 2.0, "M": 0.0},
    "kane_mele": {"t": 1.0, "lso": 0.06, "lr": 0.0, "lv": 0.0},
    "bhz": {"A": 1.0, "B": 1.0, "C": 0.0, "D": 0.0, "M": -0.5},
    "wilson_dirac_3d": {"m": -2.0},
}

_BUILDERS = {
    "ssh": ssh,
    "haldane": haldane,
    "kane_mele": kane_mele,
    "bhz": bhz,
    "wilson_dirac_3d": wilson_dirac_3d,
}


def build_builtin(name, params=None):
    """Instantiate a builtin model by name with keyword parameters."""
    if name not in _BUILDERS:
        raise UnknownModelError(f"unknown builtin {name!r}; choices: {sorted(_BUILDERS)}")
    params = dict(params or {})
    allowed = set(BUILTIN_DEFAULTS[name])
    bad = set(params) - allowed
    if bad:
        raise UnknownModelError(f"unknown parameters {sorted(bad)} for {name}; allowed: {sorted(allowed)}")
    return _BUILDERS[name](**params)


@dataclass(frozen=True)
class ModelAudit:
    """Residuals (max operator-norm defect over the grid) per declared relation.

    A residual of None means the symmetry was neither declared nor supplied.
    spectrum_parity is max_{n,k} |E_n(k) - E_n(-k)| with bands sorted, reported
    whenever TR or SR was tested.
    """

    tr_residual: float
    sr_residual: float
    tau_residual: float
    spectrum_parity: float
    verdicts: dict
    tolerance: float = 1e-9


def verify_model_symmetries(model, grid, time_reversal=None, space_reflection=None, tol=1e-9):
    """Audit H(-k) = Theta H(k) Theta^{-1} and H(-k) = R H(k) R^{-1} on a grid.

    Operators default to the model's declared ones; pass explicit operators to
    probe symmetries the model does not claim (the audit then reports how badly
    they fail). tau is trivial for hopping models, so its residual is exactly 0.
    """
    tr = time_reversal if time_reversal is not None else model.time_reversal
    sr = space_reflection if space_reflection is not None else model.space_reflection
    hs = bloch_hamiltonian_batch(model, grid.reduced)
    hneg = hs[grid.negation_permutation]
    tr_res = sr_res = None
    if tr is not None:
        u = tr.unitary
        defect = hneg - np.einsum("ab,kbc,dc->kad", u, np.conj(hs), np.conj(u))
        tr_res = float(np.max(operator_norm(defect)))
    if sr is not None:
        u = sr.unitary
        defect = hneg - np.einsum("ab,kbc,dc->kad", u, hs, np.conj(u))
        sr_res = float(np.max(operator_norm(defect)))
    parity = None
    if tr is not None or sr is not None:
        evals = np.linalg.eigvalsh(hs)
        parity = float(np.max(np.abs(evals - evals[grid.negation_permutation])))
    verdicts = {
        "time_reversal": None if tr_res is None else bool(tr_res < tol),
        "space_reflection": None if sr_res is None else bool(sr_res < tol),
        "tau": True,
    }
    return ModelAudit(
        tr_residual=tr_res,
        sr_residual=sr_res,
        tau_residual=0.0,
        spectrum_parity=parity,
        verdicts=verdicts,
        tolerance=tol,
    )


def exact_symmetry_residuals(model, time_reversal=None, space_reflection=None):
    """Symmetry defects of the hopping coefficients, a proof for every k.

    H(k) is a trigonometric polynomial, so Theta H(k) Theta^{-1} = H(-k) holds
    at every k exactly when U conj(H_R) U^dagger = H_R for every R, and the
    reflection exactly when U H_R U^dagger = H_{-R}. For each operator given,
    (sum_R of the defect's operator norm, the R of the largest); the sum
    bounds sup_k of the defect of H(k). None for an operator not given.
    """
    offsets = sorted(model.hoppings)
    mats = np.stack([model.hoppings[r] for r in offsets])
    reflected = np.stack([model.hoppings[tuple(-x for x in r)] for r in offsets])
    out = {"time_reversal": None, "space_reflection": None}
    for name, op, image, target in (
        ("time_reversal", time_reversal, mats.conj(), mats),
        ("space_reflection", space_reflection, mats, reflected),
    ):
        if op is not None:
            defect = np.einsum("ab,rbc,dc->rad", op.unitary, image, op.unitary.conj()) - target
            norms = operator_norm(defect)
            out[name] = (float(np.sum(norms)), offsets[int(np.argmax(norms))])
    return out


def _mat_to_json(mat):
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _mat_from_json(obj, what):
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix entry in {what}: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError(f"re/im shape mismatch in {what}")
    return re + 1j * im


def save_model(model, path):
    """Serialize a HoppingModel to the JSON model-file format."""
    doc = {
        "dim": model.dim,
        "basis": model.lattice.basis.tolist(),
        "fiber_dim": model.fiber_dim,
        "n_occ": model.n_occ,
        "hoppings": [
            {"R": list(r), **_mat_to_json(model.hoppings[r])} for r in sorted(model.hoppings)
        ],
    }
    if model.time_reversal is not None:
        u = model.time_reversal.unitary
        doc["time_reversal"] = {
            "unitary_re": u.real.tolist(),
            "unitary_im": u.imag.tolist(),
            "sign": int(model.time_reversal.sign),
        }
    if model.space_reflection is not None:
        u = model.space_reflection.unitary
        doc["space_reflection"] = {
            "unitary_re": u.real.tolist(),
            "unitary_im": u.imag.tolist(),
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Load a model file, validating Hermiticity (tolerance 1e-9).

    Pairs within tolerance are symmetrized exactly so the in-memory invariant
    H_{-R} = H_R^dagger holds to round-off; worse violations are rejected with
    the offending offset named.
    """
    with open(path) as fh:
        doc = json.load(fh)
    for key in ("dim", "basis", "fiber_dim", "n_occ", "hoppings"):
        if key not in doc:
            raise ValueError(f"model file missing field {key!r}")
    dim = int(doc["dim"])
    fiber_dim = int(doc["fiber_dim"])
    hoppings = {}
    for entry in doc["hoppings"]:
        r = tuple(int(x) for x in entry["R"])
        if len(r) != dim:
            raise ValueError(f"hopping offset {r} does not match dim {dim}")
        if r in hoppings:
            raise ValueError(f"duplicate hopping offset {r}")
        hoppings[r] = _mat_from_json(entry, f"hopping R={r}")
        if hoppings[r].shape != (fiber_dim, fiber_dim):
            raise ValueError(f"hopping at {r} has shape {hoppings[r].shape}")
    scale = _hopping_scale(hoppings)
    for r in sorted(hoppings):
        neg = tuple(-x for x in r)
        if neg not in hoppings:
            raise HermiticityError(f"hopping at {r} has no partner at {neg}")
        if np.max(np.abs(hoppings[neg] - hoppings[r].conj().T)) > 1e-9 * scale:
            raise HermiticityError(f"H(-R) != H(R)^dagger beyond 1e-9 for R = {r}")
    for r in sorted(hoppings):
        neg = tuple(-x for x in r)
        if r <= neg:
            sym = 0.5 * (hoppings[r] + hoppings[neg].conj().T)
            hoppings[r] = sym
            hoppings[neg] = sym.conj().T
    tr = None
    if "time_reversal" in doc:
        obj = doc["time_reversal"]
        u = _mat_from_json(
            {"re": obj["unitary_re"], "im": obj["unitary_im"]}, "time_reversal"
        )
        tr = TimeReversal(u, int(obj["sign"]))
    sr = None
    if "space_reflection" in doc:
        obj = doc["space_reflection"]
        u = _mat_from_json(
            {"re": obj["unitary_re"], "im": obj["unitary_im"]}, "space_reflection"
        )
        sr = SpaceReflection(u)
    return HoppingModel(
        lattice=Lattice.from_basis(doc["basis"]),
        fiber_dim=fiber_dim,
        n_occ=int(doc["n_occ"]),
        hoppings=hoppings,
        time_reversal=tr,
        space_reflection=sr,
        name="file",
    )

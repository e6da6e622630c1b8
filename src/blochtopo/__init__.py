"""Geometry and topology of gapped Bloch-band families.

Spectral projector families on the Brillouin torus with their symmetries
(dual-lattice covariance, time reversal, space reflection), Berry curvature
and Chern numbers by two independent methods, Z2 invariants of fermionic
time-reversal families in 2D and 3D, smooth periodic frame construction,
composite Wannier functions with localization diagnostics, a small
tight-binding model zoo, and plane-wave discretized periodic Schrodinger
operators with the modified Bloch-Floquet transform.
"""

from .core import (
    BrillouinGrid,
    KPoint,
    Lattice,
    SpaceReflection,
    TauRep,
    TimeReversal,
    canonical_reduced,
    dual_lattice,
    make_grid,
    reshuffle_matrix,
    trim_points,
)
from .errors import (
    AmbiguousSelectionError,
    BlochtopoError,
    ContourCollisionError,
    DegenerateLatticeError,
    EvenRankError,
    FrameConstructionError,
    GaplessError,
    GridParityError,
    HermiticityError,
    ObstructionError,
    PhysicsError,
    ProjectorDistanceError,
    RefinementError,
    SymmetryError,
    UnknownModelError,
)
from .floquet import (
    FiberSymmetries,
    FourierPotential,
    PlaneWaveBasis,
    SampledFunction,
    bf_forward,
    bf_inverse,
    classical_intertwiner_check,
    fiber_symmetry_ops,
    fibered_hamiltonian,
    load_potential,
    make_plane_wave_basis,
    potential_matrix,
    save_potential,
)
from .frames import (
    BoundaryUnitary,
    Frame,
    Z2Result,
    Z23DResult,
    effective_time_reversal,
    kato_nagy,
    kramers_frame,
    parallel_transport,
    smooth_periodic_frame,
    z2_3d,
    z2_boundary_winding,
    z2_wilson_flow,
)
from .geometry import (
    ChernResult,
    CurvatureField,
    berry_curvature,
    chern_number_curvature,
    chern_number_plaquette,
    curvature_parity,
    export_curvature_csv,
)
from .linalg import closest_unitary, eigenphases, hermitize, unitary_geodesic, unitary_log
from .models import (
    BUILTIN_DEFAULTS,
    HoppingModel,
    bhz,
    bloch_hamiltonian,
    build_builtin,
    exact_symmetry_residuals,
    haldane,
    kane_mele,
    load_model,
    save_model,
    ssh,
    verify_model_symmetries,
    wilson_dirac_3d,
)
from .projectors import (
    BandSelection,
    EllipseContour,
    GapReport,
    ProjectorAudit,
    ProjectorFamily,
    SmoothnessReport,
    default_contour,
    gap_check,
    riesz_projector,
    smoothness_probe,
    spectral_projector,
    verify_projector_symmetries,
)
from .wannier import (
    DecayFit,
    LocalizationReport,
    WannierSet,
    decay_fit,
    export_wannier_csv,
    frame_from_wannier,
    localization_moments,
    wannier_from_frame,
    wannier_from_plane_wave,
)

__version__ = "0.1.0"

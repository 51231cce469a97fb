"""Quantum deletion/insertion error spheres, code verdicts, and the indel distance."""

from .channels import (
    IndexSet,
    InsertionBlocks,
    SphereSet,
    delete,
    deletion_sphere,
    index_permutation,
    insert_construct,
    insertion_member,
    partial_trace,
    sample_insertions,
    tau_Q,
)
from .distance import (
    CodeSample,
    DistanceResult,
    Verdict,
    corrects,
    corrects_insertions,
    indel_distance,
    metric_check,
    min_distance,
)
from .feasibility import (
    FeasibilityReport,
    FeasibilityStatus,
    check_containment_trial,
    feasibility_del_ins,
    member_del_ins,
    member_ins_del,
)
from .linalg import (
    Tolerance,
    adjoint,
    frobenius_distance,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    is_psd,
    kron,
    project_psd,
    psd_principal_minors,
    trace,
)
from .states import (
    DensityMatrix,
    PureKet,
    QuditShape,
    SpectralForm,
    basis_index,
    basis_ket,
    density_from_ket,
    load_state,
    pure_ket,
    purity,
    save_state,
    save_states,
    scalar_state,
    spectral_decompose,
    validate,
)

__version__ = "0.1.0"

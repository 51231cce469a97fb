"""Quantum deletion/insertion error spheres, code verdicts, and the indel distance."""

from .channels import (
    IndexSet,
    SphereSet,
    delete,
    deletion_sphere,
    index_permutation,
    insert_construct,
    insertion_member,
    partial_trace,
    sample_insertions,
    separable_blocks,
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
    check_containment_trials,
    feasibility_del_ins,
    member_del_ins,
    member_ins_del,
)
from .linalg import (
    Tolerance,
    frobenius_distance,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    is_psd,
    project_psd,
    psd_principal_minors,
)
from .states import (
    DensityMatrix,
    QuditShape,
    SpectralForm,
    basis_index,
    basis_ket,
    density_from_ket,
    load_state,
    save_state,
    save_states,
    spectral_decompose,
    validate,
    validate_stack,
)

__version__ = "0.1.0"

"""States, validation, and deletion spheres.

A density matrix on n l-level qudits is Hermitian, PSD, and trace 1.  Deleting
the qudit at position p is the partial trace over that tensor factor; the
s-deletion sphere collects the results over every choice of s positions.
A pure state is a density matrix too, built from its ket by
``density_from_ket``, which checks the ket's length and norm.
"""

import numpy as np

from qindel import (
    QuditShape,
    basis_ket,
    delete,
    deletion_sphere,
    density_from_ket,
    partial_trace,
    spectral_decompose,
    validate,
)

shape = QuditShape(2, 2)
print(f"two qubits: dimension {shape.dim}")

# a Bell state, built from computational basis kets
bell = (basis_ket("00", shape) + basis_ket("11", shape)) / np.sqrt(2)
rho = density_from_ket(bell, shape)
print("\nBell density matrix:\n", np.round(rho.mat.real, 3))

# validation catches anything that is not a state
try:
    validate(np.eye(4), shape)
except Exception as exc:
    print("\nvalidate(I_4) rejects:", exc)
try:
    density_from_ket(basis_ket("00", shape) + basis_ket("11", shape), shape)
except Exception as exc:
    print("density_from_ket(|00> + |11>) rejects:", exc)

# spectral form: weights and eigenkets
form = spectral_decompose(rho)
print("\nspectral weights:", [round(p, 6) for p in form.weights.tolist()])

# losing either qubit of a Bell pair leaves the maximally mixed qubit
print("\nTr_1(bell):\n", np.round(partial_trace(rho, 1).mat.real, 3))

# a classical-looking mixture: both single deletions coincide, so the
# 1-deletion sphere has a single element
mix_mat = np.zeros((4, 4), dtype=complex)
mix_mat[0, 0] = mix_mat[3, 3] = 0.5
from qindel import DensityMatrix

mix = DensityMatrix(shape, mix_mat)
sphere = deletion_sphere(mix, 1)
print(f"\n1-deletion sphere of the mixture: {len(sphere)} distinct "
      f"(from {sphere.raw_count} raw deletions)")
print(np.round(sphere.states[0].mat.real, 3))

# |01> keeps track of which qubit was lost
k01 = density_from_ket(basis_ket("01", shape), shape)
print(f"\n1-deletion sphere of |01><01|: {len(deletion_sphere(k01, 1))} elements")

# deleting everything terminates at the unique zero-qudit state (1)
print("\nfull deletion:", delete(mix, {1, 2}).mat)

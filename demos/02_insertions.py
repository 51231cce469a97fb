"""Insertion states: index permutations, explicit block construction, sampling.

A state sigma is an insertion of rho at positions Q exactly when deleting Q
from sigma returns rho.  Members are built from rho's spectral form and one
plain array of blocks, of shape (rank, rank, l^t, l^t): blocks[x, y] is the
t-qudit block of eigenvector pair (x, y) (densities on the diagonal, traceless
adjoint pairs off it), and ``separable_blocks`` builds the one without
coherence.  One contraction attaches the blocks to the eigenvectors, and a
permutation moves the inserted qudits into place.  The block formula alone
does not guarantee positivity, so assemblies are PSD-checked and rejected
when they fail.
"""

import numpy as np

from qindel import (
    IndexSet,
    delete,
    index_permutation,
    insert_construct,
    insertion_member,
    sample_insertions,
    separable_blocks,
    tau_Q,
)
from qindel.codes import example_rho
from qindel.errors import NotPSD

# the permutation that moves an appended qudit to position 1 of three
perm = tau_Q(IndexSet((1,), 3), 2)
print("tau_Q for Q={1}, n=2:", perm)

rho = example_rho(0.3, 0.7)

# separable insertion: a fresh density per eigenvector, no coherence
pi = np.array([[0.8, 0.1], [0.1, 0.2]], dtype=complex)
blocks = separable_blocks([pi, pi])
sigma = insert_construct(rho, IndexSet((2,), 3), blocks)
print("\ninserted at position 2; deleting it returns rho:",
      delete(sigma, {2}).distance(rho) < 1e-12)
print("membership test:", insertion_member(sigma, rho, IndexSet((2,), 3)))

# a coherent block that breaks positivity is rejected: blocks[1, 0] couples
# the two eigenvectors, and blocks[0, 1] must be its adjoint
singular = np.diag([1.0, 0.0]).astype(complex)
coupling = 0.3 * np.array([[0, 1], [0, 0]], dtype=complex)  # traceless
coherent = np.array([[singular, coupling.conj().T], [coupling, singular]])
print("\nblock array shape (rank, rank, l^t, l^t):", coherent.shape)
try:
    insert_construct(rho, IndexSet((3,), 3), coherent)
except NotPSD as exc:
    print("\nnon-PSD assembly rejected:", exc)

# seeded sampling draws valid members from two families
samples = sample_insertions(rho, IndexSet((1,), 3), count=4, seed=11)
print(f"\n{len(samples)} sampled insertions, all verified members:",
      all(insertion_member(s, rho, IndexSet((1,), 3)) for s in samples))

# index permutations relabel qudit positions without touching the spectrum
swapped = index_permutation(sigma, (2, 1, 3))
print("permutation preserves spectrum:",
      np.allclose(np.sort(np.linalg.eigvalsh(swapped.mat)),
                  np.sort(np.linalg.eigvalsh(sigma.mat))))

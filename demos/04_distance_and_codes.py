"""The quantum indel distance and code-capability verdicts.

The distance between two states is the least s + t such that some s-deletion
of one equals some t-deletion of the other.  It is a metric, it is even for
equal-length states, and a code corrects t deletions exactly when its minimum
distance is at least 2t + 1; that capability carries over to any mixed batch
of t deletions and insertions.
"""

import numpy as np

from qindel import CodeSample, corrects, corrects_insertions, indel_distance, min_distance
from qindel.codes import (
    builtin_code,
    collision_pair_x2,
    example_psi,
    example_rho,
    x2_collision_params,
)
from qindel.states import DensityMatrix, QuditShape, basis_ket

# two mixtures at distance 2: deleting qubit 1 of one and qubit 2 of the
# other lands on the same maximally mixed qubit
shape = QuditShape(2, 2)
k01, k10 = basis_ket("01", shape), basis_ket("10", shape)
rho1 = example_rho(0.5, 0.5)
rho2 = DensityMatrix(shape, 0.5 * np.outer(k01, k01) + 0.5 * np.outer(k10, k10))
result = indel_distance(rho1, rho2)
print(f"d(rho1, rho2) = {result.value}  via P={list(result.P)}, Q={list(result.Q)}")

# the phase-degenerate code: min distance 2, so one deletion is uncorrectable
x1 = builtin_code("x1")
value, pair, _ = min_distance(x1)
print(f"\nphase code: {len(x1)} sampled codewords, min distance {value}")
print("corrects one deletion:", corrects(x1, 1, "deletions").ok)

# the four-qubit code: min distance 4, one deletion (or any single indel
# error) is correctable
x2 = builtin_code("hagiwara4")
value, pair, _ = min_distance(x2)
print(f"\nfour-qubit code: {len(x2)} sampled codewords, min distance {value} "
      f"(achieved by {pair[0]} / {pair[1]})")
print("corrects one deletion:", corrects(x2, 1, "deletions").ok)
print("corrects one indel error:", corrects(x2, 1, "total").ok)

psi1, psi2 = collision_pair_x2(*x2_collision_params())
print("engineered pair distance:", indel_distance(psi1, psi2).value)

# a two-state code that corrects a single insertion but not a single deletion
pair_code = CodeSample.from_states(
    [example_rho(0.5, 0.5), example_psi(0.5, 0.5)], ["rho", "psi"]
)
print("\n{rho, psi}: corrects one insertion:", corrects_insertions(pair_code, 1).ok)
print("{rho, psi}: corrects one deletion:", corrects(pair_code, 1, "deletions").ok)

"""Composed error spheres and the strict-inclusion counterexample.

Whether a state is reachable by insertions-after-deletions is a finite
question (compare two deletion spheres).  Reachability by
deletions-after-insertions is a PSD feasibility problem over lifted states
with the prescribed partial traces.  It is decided by a consistency check,
facial reduction and a dual least-squares solver, and each verdict comes
with evidence that is checked: a witness state, or a Farkas certificate
whose certified gap bounds how far every PSD state misses the constraints.

The two orders differ: with rho = (|00><00| + |11><11|)/2, the coherent state
(|01> + |10>)/sqrt(2) is reachable by insert-after-delete but provably not by
delete-after-insert.
"""

import numpy as np

from qindel import check_containment_trials, member_del_ins, member_ins_del
from qindel.codes import example_psi, example_rho, in_del_after_ins_sphere

rho = example_rho(0.5, 0.5)
psi = example_psi(0.5, 0.5)

print("psi reachable by insert-after-delete:", member_ins_del(psi, rho, 1, 1))

report = member_del_ins(psi, rho, 1, 1)
print(f"psi reachable by delete-after-insert: {report.status.value} "
      f"(smallest certified gap over all position pairs: {report.gap:.3f})")
for pair in report.details["pairs"][:3]:
    print("   P =", pair["P"], "Q =", pair["Q"], "->", pair["status"],
          f"({pair['reason']}), gap={pair['gap']:.3f}")
print("   ...")

print("closed-form check agrees:", not in_del_after_ins_sphere(psi))

# every interleaving of deletions and insertions stays inside the
# insertions-after-deletions sphere: 20 trajectories, one call, one seed
trials = check_containment_trials([rho] * 20, 0, s=1, t=2)
print(f"\n20 random (1,2)-error trajectories contained: {all(trials)}")

# a feasible instance comes back with an explicit witness
report = member_del_ins(rho, rho, 1, 1)
print(f"\nrho -> rho with one insert + one delete: {report.status.value}, "
      f"witness is a {report.witness.length}-qubit state with trace "
      f"{np.trace(report.witness.mat).real:.6f}")

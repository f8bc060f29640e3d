"""Walk through the matrix embedding: anticommuting generators, the exact
trace-norm formula, and the phase-averaged map that separates basis vectors
from spread vectors.

Run:  python demos/trace_norm_embedding.py
"""

import numpy as np

from ncglab import clifford, linalg

rng = np.random.default_rng(1)

print("=== Anticommuting Pauli-string generators ===")
n = 5
gens = clifford.make_generators(n)
print(f"n={n}: {len(gens.matrices)} generators of size {gens.dim}x{gens.dim}")
c1, c2 = gens.matrices[0], gens.matrices[1]
print("C1 C2 + C2 C1 == 0 exactly:", not np.any(c1 @ c2 + c2 @ c1))
print("C1 is Hermitian, unitary, traceless:",
      np.array_equal(c1, c1.conj().T),
      np.array_equal(c1 @ c1, np.eye(gens.dim)),
      c1.trace() == 0)

print()
print("=== The map C(a) and its exact trace norm ===")
x = rng.normal(size=n)
x /= np.linalg.norm(x)
print(f"real unit vector: ||C(x)||_S1 = {clifford.trace_norm_formula(x):.6f} "
      "(real vectors embed isometrically)")
a = rng.normal(size=n) + 1j * rng.normal(size=n)
direct = linalg.schatten1_norm(clifford.clifford_map(a, gens))
formula = clifford.trace_norm_formula(a)
print(f"complex vector:   SVD {direct:.10f} vs closed form {formula:.10f}")
misaligned = np.array([1.0, 1.0j]) / np.sqrt(2)
print(f"max cancellation at (1, i)/sqrt(2): {clifford.trace_norm_formula(misaligned):.6f}"
      f" = 1/sqrt(2)")

print()
print("=== Phase averaging: basis vectors stay long, spread vectors shrink ===")
for n in (2, 4):
    family = clifford.build_phase_family(n, "exhaustive")
    basis = np.zeros(n)
    basis[0] = 1.0
    uniform = np.full(n, n**-0.5)
    nb = clifford.dictator_embedding_norm(basis, family)
    nu = clifford.dictator_embedding_norm(uniform, family)
    print(f"n={n}: ||f(e_1)|| = {nb:.6f}   ||f(uniform)|| = {nu:.6f} "
          f"(bound {clifford.embedding_norm_bound(uniform):.6f})")
print("as n grows the uniform vector's norm approaches 1/sqrt(2) ="
      f" {2**-0.5:.6f}")

print()
print("=== The second-moment identity behind the bound ===")
family = clifford.build_phase_family(4, "exhaustive")
small = clifford.build_phase_family(4, "pairwise_independent")
a = rng.normal(size=4) + 1j * rng.normal(size=4)
a /= np.linalg.norm(a)
target = np.sum(np.abs(a)**2)**2 - np.sum(np.abs(a)**4)
print(f"4 E[Lambda^2] exhaustive ({family.size} members):  "
      f"{clifford.randphase_second_moment(a, family):.12f}")
print(f"4 E[Lambda^2] pairwise   ({small.size} members):   "
      f"{clifford.randphase_second_moment(a, small):.12f}")
print(f"||a||_2^4 - ||a||_4^4:                     {target:.12f}")

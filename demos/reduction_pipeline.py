"""End-to-end reduction: plant a label cover instance, certify completeness
through the embedding, stress the decoder with noise, and chase the operator
norm over the constraint subspace.

Run:  python demos/reduction_pipeline.py
"""

import numpy as np

from ncglab import labelcover as lc
from ncglab import reduction as red

print("=== A planted instance ===")
inst, planted = lc.generate_planted(12, 4, 6, 3, 2, seed=11)
print(f"|V|={inst.num_vertices} |E|={inst.num_edges} n={inst.n} k={inst.k} "
      f"t={inst.t} smoothness={inst.gamma:.4f}")
print("planted assignment satisfies:", lc.satisfied_fraction(inst, planted))

print()
print("=== Constraint subspace ===")
cs = red.build_constraints(inst)
basis = red.subspace_basis(cs)
print(f"constraint rows: {cs.shape[0]}, field dimension: {cs.shape[1]}, "
      f"subspace dimension: {basis.dim}")
fld = red.assignment_to_field(inst, planted)
print(f"one-hot planted field: norm {red.field_l2_norm(fld):.1f}, "
      f"constraint residual {red.constraint_residual(cs, fld):.2e}")

print()
print("=== Completeness certificates ===")
for maker in (red.clifford_backend, red.comm_real_backend, red.comm_complex_backend):
    backend = maker(inst.n)
    cert = red.completeness_certificate(inst, planted, backend, cs=cs)
    print(f"{backend.name:13s}: value={cert.value:.8f} (eta={backend.eta}) "
          f"in_subspace={cert.in_subspace} -> {'PASS' if cert.passed else 'FAIL'}")

print()
print("=== Decoding noisy fields ===")
rng = np.random.default_rng(5)
sigma = 0.05
noise = sigma / np.sqrt(2) * (rng.normal(size=fld.shape) + 1j * rng.normal(size=fld.shape))
noisy = basis.project(fld + noise)
params = red.DecoderParams(eps=0.9, delta=0.9, t=inst.t, seed=0)
labels, stats = red.decode(noisy, params, inst)
print(f"noise sigma={sigma}: |V0|/|V|={stats.v0_fraction:.2f}, "
      f"beta/4={stats.beta / 4:.4f}, satisfied={stats.satisfied_fraction:.4f}")
print("recovered == planted:", bool(np.all(labels == planted)))

print()
print("=== Operator norm over the subspace (ascent lower bound) ===")
backend = red.clifford_backend(inst.n)
result = red.operator_norm_lower_bound(inst, backend, restarts=8, iters=120, seed=3)
print(f"best value found: {result.value:.6f} "
      f"(analytic ceiling 1.0, completeness witness 1.0)")

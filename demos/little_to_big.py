"""From operator norms to bilinear forms over unitary pairs: materialize a
small embedding, lift it through its adjoint, and maximize the lifted form
by alternating closed-form polar steps.

Run:  python demos/little_to_big.py
"""

import numpy as np

from ncglab import solvers
from ncglab.reduction import BACKEND_BUILDERS

rng = np.random.default_rng(2)

print("=== Materialize a little operator ===")
op = BACKEND_BUILDERS["comm_real"](2).little_op()
print(f"sign embedding n=2 materialized as d={op.d} diagonal images")

print()
print("=== Adjoint duality ===")
a = rng.normal(size=op.n) + 1j * rng.normal(size=op.n)
a_mat = rng.normal(size=(op.d, op.d)) + 1j * rng.normal(size=(op.d, op.d))
u = solvers.adjoint_apply(op, a_mat)
lhs = np.sum(u * np.conj(a))
rhs = np.trace(op.apply(a).conj().T @ a_mat) / op.d
print(f"<F*(A), a> = {lhs:.10f}")
print(f"<A, F(a)>  = {rhs:.10f}   (residual {abs(lhs - rhs):.2e})")

print()
print("=== Lift and solve ===")
tensor = solvers.lift_little_to_big(op)
print(f"lifted tensor: d={tensor.d}, {tensor.nnz} nonzero coefficients "
      "(all on diagonal index pairs: the scalar special case)")
ncg = solvers.ncg_opt_lower_bound(tensor, restarts=16, iters=150, seed=4)
little, best_vec = solvers.little_norm_lower_bound(op, restarts=16, iters=150, seed=5)
print(f"alternating solver on the lift: {ncg.value:.8f}")
print(f"direct operator-norm ascent:    {little:.8f}  -> squared {little**2:.8f}")
print(f"unitarity of certificates: {ncg.unitarity_residual_a:.1e}, "
      f"{ncg.unitarity_residual_b:.1e}")
history = ncg.histories[0]
print(f"first restart half-step values (monotone): "
      f"{', '.join(f'{v:.6f}' for v in history[:6])} ...")

print()
print("=== Scalar special case against a brute-force phase grid ===")
tensor_eye = solvers.tensor_from_matrix(np.eye(2))
result = solvers.ncg_opt_lower_bound(tensor_eye, restarts=8, iters=100, seed=6)
angles = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
grid = float(np.abs(np.exp(1j * angles)[:, None] + np.exp(1j * angles)[None, :]).max())
print(f"solver {result.value:.6f} vs dense phase grid {grid:.6f} (true optimum 2)")

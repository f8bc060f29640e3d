"""The scalar warm-up: embed vectors into L1 through random signs or random
fourth roots of unity and watch spread vectors converge to the Gaussian
limits sqrt(2/pi) and sqrt(pi/4).

Run:  python demos/scalar_embeddings.py
"""

import numpy as np

from ncglab import commutative as comm

print("=== Exact small cases ===")
for fld in ("real", "complex"):
    ens = comm.SignEnsemble(field=fld, n=2)
    e1 = np.array([1.0, 0.0])
    uniform = np.array([1.0, 1.0]) / np.sqrt(2)
    print(f"{fld:8s}: ||f(e_1)|| = {comm.embedding_l1_norm(e1, ens).value:.6f}   "
          f"||f(uniform)|| = {comm.embedding_l1_norm(uniform, ens).value:.6f}")

print()
print("=== Convergence of the uniform vector toward the limits ===")
print(f"real limit sqrt(2/pi) = {comm.REAL_LIMIT:.6f}, "
      f"complex limit sqrt(pi/4) = {comm.COMPLEX_LIMIT:.6f}")
for fld in ("real", "complex"):
    # rows past the enumeration cap (real n > 20, complex n > 10) draw 400,000 samples
    rows = comm.berry_esseen_profile([2, 4, 16, 64], fld, sample_count=400_000, seed=7)
    print(f"{fld} field:")
    for r in rows:
        tag = "exact" if r.stderr == 0 else f"mc +-{r.stderr:.1e}"
        print(f"  n={r.n:3d}  spread={r.spread:.3f}  value={r.value:.6f}  "
              f"gap={r.gap:.6f}  [{tag}]")

print()
print("=== l2 domination: no vector beats its Euclidean length ===")
rng = np.random.default_rng(3)
ens = comm.SignEnsemble(field="complex", n=6)
worst = 0.0
for _ in range(200):
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    worst = max(worst, comm.embedding_l1_norm(a, ens).value / np.linalg.norm(a))
print(f"max ratio ||f(a)||_L1 / ||a||_2 over 200 draws: {worst:.6f} (<= 1)")

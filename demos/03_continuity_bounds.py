"""Entropy-continuity and stability inequalities in action.

For a pair of nearby pdfs, every bound of the package is evaluated and
printed with its tightness ratio (lhs / rhs; the inequalities are theorems,
so ratios stay at or below 1).  Also demonstrates the constructive
continuity radius: a tolerance eps maps to a total-variation radius delta
inside which entropy moves by at most eps times the symmetric-difference
entropy.
"""

import numpy as np

import phientropy as pe
from phientropy.bounds import condition1_delta, entropy_min_half, run_bound_checks

rng = np.random.default_rng(1)
p = pe.Pdf(rng.dirichlet(np.ones(8)))
q = pe.distributions.sample_neighbor(p, 0.05, rng)
r = pe.Pdf(rng.dirichlet(np.ones(8)))

print("=" * 72)
print(f"bound reports for a neighbor pair at tv = {pe.tv_norm(p, q):.4f} (n = 8)")
print("=" * 72)
for fam in (pe.shannon(), pe.tsallis(0.5), pe.kaniadakis(-0.5), pe.sqrt_log()):
    reports, skipped = run_bound_checks(fam, p, q, r, epsilon=0.5, mix_lambda=0.6, mix_mu=0.55)
    print(f"\n{fam.label}")
    for rep in reports:
        ratio = "   --   " if rep.ratio is None else f"{rep.ratio:8.5f}"
        print(
            f"  {rep.bound_id:<20} lhs={rep.lhs:10.3e}  rhs={rep.rhs:10.3e}  "
            f"ratio={ratio}  holds={rep.holds}"
        )
    if skipped:
        print(f"  (skipped: {', '.join(skipped)})")

print()
print("=" * 72)
print("constructive continuity radius delta(eps)")
print("=" * 72)
print(f"{'family':<24} {'eps=0.1':>12} {'eps=0.5':>12} {'eps=1.0':>12} {'I_min':>10}")
for fam in (pe.shannon(), pe.tsallis(0.5), pe.tsallis(-0.9), pe.piecewise_linear(2.0)):
    deltas = [condition1_delta(fam, eps) for eps in (0.1, 0.5, 1.0)]
    print(
        f"{fam.label:<24} {deltas[0]:>12.4e} {deltas[1]:>12.4e} {deltas[2]:>12.4e} "
        f"{entropy_min_half(fam):>10.5f}"
    )

print()
print("inside the radius, |I(p) - I(q)| <= eps * I(p sym q):")
fam, eps = pe.shannon(), 0.5
delta = condition1_delta(fam, eps)
worst = 0.0
for _ in range(2000):
    base = pe.Pdf(rng.dirichlet(np.ones(6)))
    near = pe.distributions.sample_neighbor(base, delta * 0.999, rng)
    if pe.tv_norm(base, near) == 0:
        continue
    lhs = abs(pe.entropy(fam, base) - pe.entropy(fam, near))
    rhs = eps * pe.entropy(fam, pe.sym_diff(base, near))
    worst = max(worst, lhs / rhs)
print(f"  shannon, eps=0.5, delta={delta:.5f}: worst observed lhs/rhs = {worst:.4f}")

"""Entropy, relative entropy and Bregman divergence across families.

Shows the generic evaluations agreeing with closed-form power sums, the
nonnegativity and concavity structure, and the linking identity between
entropy and divergence.
"""

import numpy as np

import phientropy as pe

rng = np.random.default_rng(0)
p = pe.validate([0.5, 0.3, 0.15, 0.05])
q = pe.validate([0.25, 0.25, 0.25, 0.25])

print("=" * 72)
print("entropies of p =", p.weights.tolist())
print("=" * 72)
for fam in pe.default_family_grid():
    i_p = pe.entropy(fam, p, "generic")
    i_max = pe.entropy_max(fam, p.n)
    print(f"{fam.label:<24} I(p)={i_p:>9.5f}   I_max(4)={i_max:>9.5f}")

print()
print("closed-form fast paths agree with the generic route:")
for fam in (pe.shannon(), pe.tsallis(0.5), pe.kaniadakis(0.5)):
    a = pe.entropy(fam, p, "generic")
    b = pe.entropy(fam, p, "closed_form")
    print(f"  {fam.label:<22} generic={a:.15f}  closed={b:.15f}  gap={abs(a-b):.1e}")

print()
print("=" * 72)
print("two relative entropies of (p, q)")
print("=" * 72)
print(f"{'family':<24} {'I(p|q)':>12} {'D(p|q)':>12}")
for fam in pe.default_family_grid():
    rel = pe.rel_entropy(fam, p, q, "omega")
    div = pe.divergence(fam, p, q, "generic")
    print(f"{fam.label:<24} {rel:>12.6f} {div:>12.6f}")
print("(the two coincide for the natural logarithm and differ otherwise)")

print()
print("linking identity: I(p) + D(p|q) - I(q) + sum (p-q) ln_phi(q) = 0")
for fam in (pe.shannon(), pe.tsallis(-0.5), pe.kappa_maxwell(2.0)):
    cross = float(np.sum((p.weights - q.weights) * np.asarray(pe.ln_phi(fam, q.weights))))
    resid = pe.entropy(fam, p) + pe.divergence(fam, p, q) - pe.entropy(fam, q) + cross
    print(f"  {fam.label:<22} residual = {resid:+.2e}")

print()
print("entropy is concave: mixing two pdfs never loses entropy")
fam = pe.kaniadakis(0.5)
for lam in (0.25, 0.5, 0.75):
    mix = pe.Pdf(lam * p.weights + (1 - lam) * q.weights)
    gain = pe.entropy(fam, mix) - (lam * pe.entropy(fam, p) + (1 - lam) * pe.entropy(fam, q))
    print(f"  lam={lam:.2f}  mixture entropy gain = {gain:+.6f} (>= 0)")

print()
print("a custom logarithm, integrated by quadrature, beside its built-in twin")
custom = pe.custom_family(lambda x: -(x**-0.5 - 1.0), singularity_exponent=0.5)  # tsallis(-0.5)'s ln_phi
twin = pe.tsallis(-0.5)
for pdf, name in ((p, "p"), (q, "q")):
    a, b = pe.entropy(custom, pdf), pe.entropy(twin, pdf)
    print(f"  I({name})  custom={a:.15f}  {twin.label}={b:.15f}  gap={abs(a-b):.1e}")

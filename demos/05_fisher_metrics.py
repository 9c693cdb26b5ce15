"""The two generalized Fisher information metrics.

The relative-entropy expansion gives the classical Fisher matrix times the
family prefactor ln_phi'(1); the divergence expansion weighs coordinates by
ln_phi'(p_k) and depends on the family in a genuinely nontrivial way.  Both
are validated against their defining quadratic expansions on a ladder of
shrinking parameter steps.
"""

import numpy as np

import phientropy as pe
from phientropy.errors import NonDifferentiableError

bern = pe.bernoulli_model()
theta = np.array([0.5])

print("=" * 72)
print("Bernoulli model at theta = 0.5 (classical Fisher information = 4)")
print("=" * 72)
print(f"{'family':<24} {'prefactor':>10} {'g1':>10} {'g2':>10}")
for fam in pe.default_family_grid():
    try:
        pref = pe.ln_phi_prime(fam, 1.0)
    except NonDifferentiableError:
        # ln_phi has a kink at 1, so g1 is refused.  g2 needs ln_phi' only at
        # the model's probabilities: 0.5 is a knot too, 0.3 and 0.7 are not.
        g2 = pe.fisher_g2(fam, bern, np.array([0.3]))[0, 0]
        print(f"{fam.label:<24} {'-':>10} {'refused':>10} {g2:>10.5f}  (g2 at theta = 0.3)")
        continue
    g1 = pe.fisher_g1(fam, bern, theta)[0, 0]
    g2 = pe.fisher_g2(fam, bern, theta)[0, 0]
    print(f"{fam.label:<24} {pref:>10.5f} {g1:>10.5f} {g2:>10.5f}")
print("(g1 is always prefactor * 4; g2 escapes that pattern)")
print("(piecewise_linear: no two-sided derivative at 1, so no g1; g2 fails only on a knot)")

print()
print("=" * 72)
print("softmax model: g1 against the exact categorical Fisher matrix")
print("=" * 72)
model = pe.softmax_model(4)
th = np.array([0.3, -0.2, 0.8])
pi = model.eval(th).weights
exact = np.diag(pi[:3]) - np.outer(pi[:3], pi[:3])
got = pe.fisher_g1(pe.shannon(), model, th)
print("max |g1 - exact| =", np.abs(got - exact).max())

print()
print("=" * 72)
print("quadratic-expansion ladder (steps halve; residuals drop ~8x)")
print("=" * 72)
for fam in (pe.shannon(), pe.tsallis(0.5), pe.kaniadakis(-0.5)):
    rep = pe.expansion_check(fam, bern, np.array([0.3]), np.array([1e-2]))
    print(f"\n{fam.label}")
    print(f"  steps: {rep.steps}")
    print(f"  r1   : {['%.3e' % r for r in rep.r1]}   order {rep.order1:.2f}")
    print(f"  r2   : {['%.3e' % r for r in rep.r2]}   order {rep.order2:.2f}")
    print(f"  sym  : {['%.3e' % s for s in rep.sym]}")

print()
print("mixture model with exact linear-in-parameters Fisher oracle:")
mix = pe.binomial_mixture_model(6)
rep = pe.expansion_check(pe.kaniadakis(0.5), mix, np.array([0.3, 0.4]), np.array([8e-3, -6e-3]))
print(f"  orders: g1 expansion {rep.order1:.2f}, g2 expansion {rep.order2:.2f}")

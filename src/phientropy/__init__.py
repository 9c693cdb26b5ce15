"""Deformed-logarithm entropies and their continuity estimates.

The package provides, for a family of generalized logarithms:

- the derived functions F, omega and exp (:mod:`phientropy.families`),
- finite discrete pdfs and their samplers (:mod:`phientropy.distributions`),
- entropy, relative entropy and Bregman divergence (:mod:`phientropy.functionals`),
- the metric and stability inequalities (:mod:`phientropy.bounds`) and an
  adversarial scan engine that hunts for their violations (:mod:`phientropy.scan`),
- two generalized Fisher information metrics (:mod:`phientropy.fisher`),
- a reproducible CLI (:mod:`phientropy.cli`).
"""

from .distributions import Pdf, normalize, pad, sym_diff, tv_norm, validate
from .errors import PhiEntropyError
from .families import (
    LogFamily,
    big_f,
    big_f_drop,
    custom_family,
    exp_phi,
    family_from_json,
    family_to_json,
    kaniadakis,
    kappa_maxwell,
    kappa_maxwell_density,
    ln_phi,
    ln_phi_prime,
    omega_phi,
    piecewise_linear,
    shannon,
    sqrt_log,
    tsallis,
)
from .functionals import bregman_f, divergence, entropy, entropy_max, rel_entropy
from .bounds import (
    BoundReport,
    ScanConfig,
    ScanReport,
    check_cont1,
    check_cont2,
    check_condition1_segment,
    check_fannes,
    check_improved,
    check_lb,
    check_lesche3,
    check_lesche4,
    check_relent,
    condition1_delta,
    default_family_grid,
    e_r,
    h_r,
    metric_d,
    stability_scan,
)
from .fisher import (
    ParametricModel,
    bernoulli_model,
    binomial_mixture_model,
    expansion_check,
    fisher_g1,
    fisher_g2,
    softmax_model,
)

__version__ = "0.1.0"

"""Every built-in kernel against mpmath over the whole float range, within its error budget.

The budgets are the ones the ``phientropy.families`` docstring states.  A
kernel value ``got`` of an exact value ``want`` (mpmath at 50 digits, from
``exact_kernels`` and the closed forms below, none of which share the
library's arithmetic) is within budget when

    |got - want| <= rel * |want| + rel_x * s(x) + spacings * 2**-1074,

and, where ``want`` lies beyond DBL_MAX, when ``got`` is the infinity of its
sign or a finite value within ``rel`` of DBL_MAX.  s(x) is x |f'(x)|, and
x (1 + |ln_phi(x)|) for the drop, which crosses 0 where F(x) = F(0).
``rel_x`` is 0 for every kernel that keeps relative accuracy, so near x = 1
a value must keep its digits as it goes to 0; piecewise_linear's knots
round, so its ln_phi and omega carry a share of s(x), and its ln_phi' may
take the value at x (1 +- rel_x).  The ``exp_phi`` round trip is budgeted
as a backward error: y = ln_phi(x) must lie within d = lifted (1 + |y|) of
the exact ln_phi over [back - dx, back + dx], back = exp_phi(y) and
dx = rel * back + spacings * 2**-1074.  And ln_phi is increasing along
sorted x, strictly wherever the exact values differ by more than both
points' budgets.

The x are log-uniform over [5e-324, DBL_MAX], with clusters within 1e-15 to
1e-3 of 1, among the subnormals, and, for piecewise_linear, next to its
knots; the parameters are log-uniform over each kind's admissible range,
edges included.  A fixed seeded sample reproduces; a hypothesis search
climbs toward each kernel's largest error with ``hypothesis.target``.  The
custom kind, whose kernels are quadratures, is certified elsewhere.

``python tests/test_kernel_range.py`` prints each kernel's largest error
over a larger sample, as a share of its budget.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import phientropy as pe

from test_families import exact_kernels

DBL_MAX = float(np.finfo(float).max)
TINY = float(np.finfo(float).tiny)
SPACING = 5e-324
EPS = 2.0**-52

# (rel, rel_x, spacings) per kernel and kind, as the families docstring states them.
BUDGETS = {
    "ln": {
        "shannon": (1e-15, 0.0, 0),
        "tsallis": (1e-15, 0.0, 0),
        "kaniadakis": (1e-15, 0.0, 0),
        "kappa_maxwell": (1e-15, 0.0, 0),
        "sqrt_log": (1e-15, 0.0, 0),
        "piecewise_linear": (1e-15, 1e-15, 1),
    },
    "drop": {
        "shannon": (1e-15, 1e-15, 1),
        # 1 + 1/kappa and F(0) cancel as |kappa| -> 0, and 1 + 1/kappa as kappa -> -1.
        "tsallis": lambda fam: (_power_loss(fam),) * 2 + (1.0 / abs(fam.kappa),),
        "kaniadakis": lambda fam: (_power_loss(fam),) * 2 + (1.0 / abs(fam.kappa),),
        "kappa_maxwell": (1e-13, 1e-12, 64),
        "sqrt_log": (1e-15, 1e-15, 1),
        "piecewise_linear": (1e-15, 1e-15, 1),
    },
    "omega": {
        "shannon": (1e-15, 0.0, 0),
        "tsallis": (1e-15, 0.0, 0),
        "kaniadakis": (1e-15, 0.0, 0),
        "kappa_maxwell": (1e-15, 0.0, 0),
        "sqrt_log": (1e-15, 0.0, 0),
        "piecewise_linear": (1e-15, 1e-15, 0),
    },
    "prime": {
        "shannon": (1e-15, 0.0, 1),
        "tsallis": (1e-12, 0.0, 1),
        "kaniadakis": (1e-12, 0.0, 1),
        "kappa_maxwell": (1e-12, 0.0, 1),
        "sqrt_log": (1e-15, 0.0, 1),
        "piecewise_linear": (1e-15, 1e-15, 1),
    },
    # (rel in x, lifted: an error in y relative to 1 + |y|, spacings in x)
    "exp": {
        "shannon": (1e-15, 1e-15, 1),
        "tsallis": (1e-15, 4e-12, 1),
        "kaniadakis": (1e-15, 4e-12, 1),
        "kappa_maxwell": (2e-13, 4e-12, 1),
        "sqrt_log": (1e-15, 1e-15, 1),
        "piecewise_linear": (1e-12, 2e-13, 2),
    },
}
KERNELS = tuple(BUDGETS)
KINDS = tuple(BUDGETS["ln"])


def _power_loss(fam) -> float:
    """The power kinds' drop: 4 eps / min(|kappa|, 1 - |kappa|), for 1 + 1/kappa and F(0),
    and 2e-13 for the exponents 1 -+ kappa, which round, at |ln x| up to 745."""
    return 4.0 * EPS / min(abs(fam.kappa), 1.0 - abs(fam.kappa)) + 2e-13


def budget(kernel: str, fam) -> tuple:
    """(rel, rel_x, spacings) of ``kernel`` for ``fam``."""
    entry = BUDGETS[kernel][fam.kind]
    return entry(fam) if callable(entry) else entry


# Each kind's admissible parameters: (name, log10 range of the drawn magnitude,
# signed, edges).
PARAMS = {
    "tsallis": ("kappa", (-4.0, math.log10(1.0 - 1e-6)), True, (1e-4, 0.9999, 1.0 - 1e-6)),
    "kaniadakis": ("kappa", (-4.0, math.log10(1.0 - 1e-6)), True, (1e-4, 0.9999, 1.0 - 1e-6)),
    "kappa_maxwell": ("kappa", (-8.0, 8.0), False, (1e-8, 1e8)),
    # base - 1
    "piecewise_linear": ("base", (-12.0, 300.0), False, (1e-12, 1e300)),
}


def _family(kind: str, magnitude: float = math.nan, negative: bool = False) -> pe.LogFamily:
    if kind not in PARAMS:
        return pe.LogFamily(kind=kind)
    name, _, signed, _ = PARAMS[kind]
    if name == "base":
        return pe.LogFamily(kind=kind, base=1.0 + magnitude)
    return pe.LogFamily(kind=kind, kappa=-magnitude if signed and negative else magnitude)


def _edge_families() -> list:
    out = [_family(kind) for kind in KINDS if kind not in PARAMS]
    for kind, (_, _, signed, edges) in PARAMS.items():
        out += [_family(kind, m, neg) for m in edges for neg in ((False, True) if signed else (False,))]
    return out


def _drawn_families(rng, count: int) -> list:
    out = []
    for kind, (_, (lo, hi), signed, _) in PARAMS.items():
        for _ in range(count):
            out.append(_family(kind, 10.0 ** rng.uniform(lo, hi), signed and bool(rng.integers(2))))
    return out


def _xs(rng, fam, count: int) -> np.ndarray:
    """log-uniform x, x near 1, subnormal x, the ends of the range and, for
    piecewise_linear, x next to its knots."""
    wide = np.exp(rng.uniform(math.log(SPACING), math.log(DBL_MAX), count))
    near = 1.0 + rng.choice((-1.0, 1.0), count // 4) * 10.0 ** rng.uniform(-15, -3, count // 4)
    sub = np.exp(rng.uniform(math.log(SPACING), math.log(TINY), count // 8))
    parts = [wide, near, sub, [SPACING, 1e-310, TINY, 1.0, DBL_MAX]]
    if fam.kind == "piecewise_linear":
        logs = np.log(wide[: count // 4]) / math.log(fam.base)
        with np.errstate(over="ignore", under="ignore"):
            knots = np.power(fam.base, np.round(logs))
        parts.append(knots * (1.0 + rng.choice((-1.0, 1.0), knots.size) * 10.0 ** rng.uniform(-15, -6, knots.size)))
    xs = np.concatenate(parts)
    return np.unique(xs[(xs > 0) & (xs <= DBL_MAX)])


# ---------------------------------------------------------------------------
# the exact values


def _mp_f_zero(fam):
    if fam.kind == "kaniadakis":
        return 1 / (1 - mpmath.mpf(fam.kappa) ** 2)
    if fam.kind == "sqrt_log":
        return mpmath.mpf(1) / 3
    if fam.kind == "piecewise_linear":
        return mpmath.mpf(1) / 2 + 1 / (mpmath.mpf(fam.base) - 1)
    return mpmath.mpf(1)


def _mp_knot(fam, x):
    """piecewise_linear's panel knot base**m at x, with m found exactly."""
    a = mpmath.mpf(fam.base)
    m = mpmath.floor(mpmath.log(x) / mpmath.log(a))
    m += (a ** (m + 1) <= x) - (a**m > x)
    return a**m


def _mp_prime(fam, x):
    """ln_phi'(x) from each kind's closed form."""
    if fam.kind == "shannon":
        return 1 / x
    if fam.kind == "sqrt_log":
        return 1 / (2 * mpmath.sqrt(x))
    if fam.kind == "piecewise_linear":
        return 1 / (_mp_knot(fam, x) * (mpmath.mpf(fam.base) - 1))
    k = mpmath.mpf(fam.kappa)
    if fam.kind == "tsallis":
        return (1 + k) * x ** (k - 1)
    if fam.kind == "kaniadakis":
        return (x ** (k - 1) + x ** (-k - 1)) / 2
    return k / (1 + k) * x ** (-(2 + k) / (1 + k))  # kappa_maxwell


class _Exact:
    """The exact kernel values at one x, and x |f'(x)| for each."""

    def __init__(self, fam, x: float):
        with mpmath.workdps(50):
            t = mpmath.mpf(x)
            self.ln, self.drop = exact_kernels(fam, t)
            self.prime = _mp_prime(fam, t)
            # ln_phi' jumps at piecewise_linear's knots, which round: its
            # values at x (1 -+ rel_x) count too.
            rel_x = budget("prime", fam)[1]
            self.primes = [self.prime] + [_mp_prime(fam, t * (1 + s * rel_x)) for s in (-1, 1) if rel_x]
            inv = 1 / t
            ln_inv, drop_inv = exact_kernels(fam, inv)
            # omega(x) = x g(1/x) - F(0), and x omega'(x) = x g(1/x) + ln_phi(1/x)
            self.omega = t * drop_inv - _mp_f_zero(fam) if x != 1.0 else mpmath.mpf(0)
            self.scale = {
                "ln": t * self.prime,
                "drop": t * (1 + abs(self.ln)),
                "omega": abs(t * drop_inv + ln_inv),
                "prime": mpmath.mpf(0),  # rel_x of prime moves x instead
            }
            # piecewise_linear is not differentiable at its knots.
            self.knot = fam.kind == "piecewise_linear" and _mp_knot(fam, t) == t


def _excess(got: float, want, kernel: str, fam, scale) -> float:
    """|got - want| in units of its budget: at most 1 within budget, inf where got is non-finite and want is not."""
    rel, rel_x, spacings = budget(kernel, fam)
    if abs(want) > DBL_MAX:
        if math.isinf(got) and (got > 0) == (want > 0):
            return 0.0
        return float(abs(got - DBL_MAX * mpmath.sign(want)) / (rel * DBL_MAX)) if math.isfinite(got) else math.inf
    if not math.isfinite(got):
        return math.inf
    error = abs(mpmath.mpf(got) - want)
    if error == 0:
        return 0.0
    allowed = rel * abs(want) + rel_x * scale + spacings * SPACING
    return float(error / allowed) if allowed > 0 else math.inf


def _mp_ln(fam, t):
    """Exact ln_phi at t >= 0 or inf, its limits at the ends."""
    if t == 0:
        return mpmath.mpf(fam.ln_at_zero)
    return mpmath.mpf(fam.ln_sup) if t > DBL_MAX else exact_kernels(fam, t)[0]


def _roundtrip_excess(fam, y: float, back: float) -> float:
    """Where y lies in the window [ln_phi(back - dx) - d, ln_phi(back + dx) + d] of back = exp_phi(y),
    dx = rel back + n 2**-1074 and d = lifted (1 + |y|): |y - ln_phi(back)| over the window's side,
    at most 1 inside it, and beyond it 1 plus the distance in units of d.  exp_phi's inf is any x
    from DBL_MAX (1 - rel) up, its 0 any x below n spacings."""
    rel, lifted, spacings = budget("exp", fam)
    with mpmath.workdps(50):
        d = lifted * (1 + abs(mpmath.mpf(y)))
        if math.isinf(back):
            center, lo, hi = _mp_ln(fam, math.inf), _mp_ln(fam, DBL_MAX * (1 - rel)), mpmath.inf
        else:
            dx = rel * mpmath.mpf(back) + spacings * SPACING
            center, lo, hi = _mp_ln(fam, back), _mp_ln(fam, max(back - dx, 0)), _mp_ln(fam, back + dx)
        lo, hi = lo - d, hi + d
        if not lo <= y <= hi:
            return 1.0 + float(min(abs(y - lo), abs(y - hi)) / d)
        if y == center or back == 0.0 or math.isinf(back):  # 0 and inf stand for ranges of x
            return 0.0
        return float(abs(y - center) / (hi - center if y > center else center - lo))


def excesses(fam, xs: np.ndarray) -> dict:
    """Each kernel's error at each x, in units of its budget, and the monotonicity faults of ln_phi."""
    xs = np.sort(np.asarray(xs, dtype=float))
    exact = [_Exact(fam, float(x)) for x in xs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {
            "ln": np.asarray(pe.ln_phi(fam, xs)),
            "drop": np.asarray(pe.big_f_drop(fam, xs)),
            "omega": np.asarray(pe.omega_phi(fam, xs)),
        }
        smooth = np.array([not e.knot for e in exact])
        got["prime"] = np.full(xs.size, math.nan)
        got["prime"][smooth] = pe.ln_phi_prime(fam, xs[smooth])
        # The inverse round trip, where ln_phi is finite.
        finite = np.isfinite(got["ln"])
        back = np.full(xs.size, math.nan)
        back[finite] = pe.exp_phi(fam, got["ln"][finite])
    out = {kernel: np.zeros(xs.size) for kernel in KERNELS}
    for i, (x, e) in enumerate(zip(xs.tolist(), exact)):
        for kernel in ("ln", "drop", "omega"):
            out[kernel][i] = _excess(float(got[kernel][i]), getattr(e, kernel), kernel, fam, e.scale[kernel])
        if smooth[i]:
            out["prime"][i] = min(_excess(float(got["prime"][i]), want, "prime", fam, 0) for want in e.primes)
        if finite[i]:
            out["exp"][i] = _roundtrip_excess(fam, float(got["ln"][i]), float(back[i]))
    # ln_phi never decreases, and rises wherever the exact values part by more than both budgets.
    ln = got["ln"]
    faults = []
    for i in range(xs.size - 1):
        a, b = exact[i], exact[i + 1]
        rel, rel_x, spacings = budget("ln", fam)
        allowed = sum(rel * abs(e.ln) + rel_x * e.scale["ln"] + spacings * SPACING for e in (a, b))
        if min(abs(a.ln), abs(b.ln)) > DBL_MAX:  # both overflow
            continue
        if ln[i + 1] < ln[i] or (ln[i + 1] == ln[i] and b.ln - a.ln > allowed):
            faults.append((float(xs[i]), float(xs[i + 1])))
    out["monotone"] = faults
    return out


def _assert_within(fam, xs) -> None:
    found = excesses(fam, xs)
    assert not found.pop("monotone"), fam.label
    for kernel, ratios in found.items():
        worst = int(np.argmax(ratios))
        assert ratios[worst] <= 1.0, (kernel, fam.label, float(np.sort(xs)[worst]), float(ratios[worst]))


# ---------------------------------------------------------------------------
# the seeded sample and the search


@pytest.mark.parametrize("fam", _edge_families(), ids=lambda f: f.label)
def test_edge_parameters_within_budget(fam):
    _assert_within(fam, _xs(np.random.default_rng(7), fam, 48))


@pytest.mark.parametrize("seed", range(2))
def test_drawn_parameters_within_budget(seed):
    rng = np.random.default_rng(100 + seed)
    for fam in _drawn_families(rng, 3):
        _assert_within(fam, _xs(rng, fam, 24))


@st.composite
def _case(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind in PARAMS:
        _, (lo, hi), signed, _ = PARAMS[kind]
        fam = _family(kind, 10.0 ** draw(st.floats(lo, hi)), signed and draw(st.booleans()))
    else:
        fam = _family(kind)
    # x as log2 x over the float range, or 1 + 10**e near 1.
    wide = st.floats(-1074.0, math.log2(DBL_MAX)).map(lambda e: min(2.0**e, DBL_MAX))
    near = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-15.0, -3.0)).map(lambda se: 1.0 + se[0] * 10.0 ** se[1])
    xs = draw(st.lists(st.one_of(wide, near), min_size=1, max_size=6))
    return fam, np.array([x for x in xs if x > 0])


@settings(max_examples=60)
@given(_case())
def test_search_finds_no_kernel_beyond_budget(case):
    fam, xs = case
    found = excesses(fam, xs)
    assert not found.pop("monotone"), fam.label
    for kernel, ratios in found.items():
        target(float(min(np.max(ratios), 1e6)), label=f"{kernel} {fam.kind}")
        assert np.max(ratios) <= 1.0, (kernel, fam.label, xs.tolist(), ratios.tolist())


def test_near_one_keeps_the_sign_of_x_minus_one():
    # ln_phi and omega are negative below 1 and positive above it, also at
    # 1 -+ 1e-12, where their plain forms used to round to 0 or the wrong sign.
    xs = np.array([1.0 - 2e-12, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 2e-12])
    for fam in (pe.tsallis(1e-4), pe.kaniadakis(1e-4), pe.sqrt_log(), pe.kappa_maxwell(2e-5), pe.piecewise_linear(2.0)):
        for fn in (pe.ln_phi, pe.omega_phi):
            values = np.asarray(fn(fam, xs))
            assert np.all(np.diff(values) > 0), (fam.label, fn.__name__, values)
            assert np.array_equal(np.sign(values), np.sign(xs - 1.0)), (fam.label, fn.__name__, values)


def _report(seed: int = 1, count: int = 400) -> None:
    """Print each kernel's largest error, in units of its budget, over edge and drawn families."""
    rng = np.random.default_rng(seed)
    worst = {}
    for fam in _edge_families() + _drawn_families(rng, 12):
        found = excesses(fam, _xs(rng, fam, count))
        if found.pop("monotone"):
            print("not increasing:", fam.label)
        for kernel, ratios in found.items():
            i = int(np.argmax(ratios))
            key = (kernel, fam.kind)
            if key not in worst or ratios[i] > worst[key][0]:
                worst[key] = (float(ratios[i]), fam.label)
    for (kernel, kind), (ratio, label) in sorted(worst.items()):
        print(f"{kernel:6} {kind:17} {ratio:.3g} of its budget, at {label}")


if __name__ == "__main__":
    _report()

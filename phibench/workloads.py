"""The two workloads of the phientropy benchmark and the loop that times them.

Every workload is a closed loop with one caller in one thread.  It is built
from ``--seed`` into a fixed list of *items* (one scan, or one library call on
fixed inputs); a *round* runs every item once, and rounds repeat until the
time budget is spent.

Times are reported at a reference speed of the host.  On a shared 2-vCPU
Intel Xeon virtual machine the speed a process gets drifts by up to 1.9x,
within a run and between runs minutes apart; process CPU time moves with
wall time, so it is not preemption, and no statistic of wall times taken
within one run removes it.  So every timed operation is bracketed by a fixed
calibration loop that does not touch the library (``calibration_loop``), and
its time is scaled by ``REF_SECONDS`` over the mean of the two calibration
times around it.  A change to the library moves the scaled times as it moves
wall times; a change in the host's speed moves both the operation and the
calibration, and cancels.  An item's figure is the median of its scaled
repeats.

Correctness is checked after the timed region: every output is compared with
an oracle that does not share the timed code path, and every repeat of an
item, traced or not, must give the same output bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import struct
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# The ten inequality ids a scan must exercise.  Kept here rather than read
# from the library so that a bound dropped from the library shows as a
# failure instead of silently shrinking the gate.
BOUND_IDS = (
    "cont1",
    "relent_I",
    "relent_D",
    "improved",
    "cont2",
    "lesche3",
    "lesche4",
    "fannes",
    "lb",
    "condition1_segment",
)
RATIO_LIMIT = 1.0 + 1e-9
REL_TOL = 1e-10
MIN_ROUNDS = 2

SCAN_TRIALS = 1000  # the CLI's default --trials
SCAN_SEEDS = 4
CUSTOM_N = 2
CUSTOM_CONCENTRATION = 8.0  # Dirichlet parameter: pdfs near uniform
CUSTOM_MOVE = 0.1


def _tsallis_ln(k: float):
    return lambda x: (1.0 + 1.0 / k) * (x**k - 1.0)


def _kaniadakis_ln(k: float):
    return lambda x: (x**k - x**-k) / (2.0 * k)


# (label, user ln, singularity exponent, built-in twin as (constructor, args),
# pdf pairs).  The log family, the cheapest, gets two pdf pairs, so that of
# the ten calls the median falls between the two kaniadakis(0.3) calls rather
# than on the gap between two families' costs.
CUSTOM_SPECS = (
    ("log", np.log, 0.0, ("shannon", ()), 2),
    ("kaniadakis(0.3)", _kaniadakis_ln(0.3), 0.3, ("kaniadakis", (0.3,)), 1),
    ("tsallis(-0.5)", _tsallis_ln(-0.5), 0.5, ("tsallis", (-0.5,)), 1),
    ("tsallis(-0.9)", _tsallis_ln(-0.9), 0.9, ("tsallis", (-0.9,)), 1),
)


@dataclass
class Phientropy:
    """One import of the library, with handles the benchmark keeps."""

    pkg: object
    cli: object
    bounds: object
    functionals: object
    families: object
    numerics: object
    distributions: object
    fisher: object
    # The lru_cache object itself, so cache_clear/cache_info stay reachable
    # while the module attribute is replaced by a tracing wrapper.
    condition1_cache: object = None

    def modules(self) -> dict:
        return {
            name: getattr(self, name)
            for name in ("pkg", "cli", "bounds", "functionals", "families",
                         "numerics", "distributions", "fisher")
        }


def load_phientropy() -> Phientropy:
    """Import phientropy afresh (dropping any earlier import) and return it."""
    for name in [m for m in sys.modules if m == "phientropy" or m.startswith("phientropy.")]:
        del sys.modules[name]
    pkg = importlib.import_module("phientropy")
    mods = {
        short: importlib.import_module(f"phientropy.{short}")
        for short in ("cli", "bounds", "functionals", "families", "numerics",
                      "distributions", "fisher")
    }
    return Phientropy(pkg=pkg, condition1_cache=mods["bounds"].condition1_delta, **mods)


@dataclass(frozen=True)
class Call:
    """One public call: ``entropy(fam, p)`` or ``metric_d(fam, p, q)``."""

    label: str
    fam: object
    fn: str
    p: object
    q: object
    twin: object = None  # built-in family a custom one copies


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# workloads


class ScanWorkload:
    """The default ``phientropy scan``, run in-process through ``cli.main``.

    Items are scans of ``trials`` trials at sub-seeds derived from the seed,
    with every other option at its default (13 grid families, dims 2, 4,
    16, 64, all four modes).  The condition1_delta cache is cleared before
    every scan, so each one starts cold, as a user's CLI invocation does.
    """

    name = "scan-default"
    op = "trial"

    def __init__(self, trials: int = SCAN_TRIALS, seeds: int = SCAN_SEEDS):
        self.trials = trials
        self.seeds = seeds

    def build(self, ph: Phientropy, seed: int, ln_wrap=None) -> list:
        subseeds = np.random.SeedSequence(seed).generate_state(self.seeds)
        return [["scan", "--trials", str(self.trials), "--seed", str(int(s))] for s in subseeds]

    def ops(self, item) -> int:
        return self.trials

    def run_item(self, ph: Phientropy, item):
        cache = ph.condition1_cache
        cache.cache_clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            code = ph.cli.main(item)
            t = perf_counter() - t0
        info = cache.cache_info()
        return t, (code, buf.getvalue(), info.hits, info.misses)

    def label(self, item) -> str:
        return f"seed={item[item.index('--seed') + 1]}"

    def problems(self, ph: Phientropy, item, output) -> list[str]:
        code, text = output[0], output[1]
        found = []
        if code != 0:
            found.append(f"exit code {code}")
        try:
            payload = json.loads(text)
        except ValueError:
            return found + ["payload is not JSON"]
        if payload.get("trials") != self.trials:
            found.append(f"trials {payload.get('trials')} != {self.trials}")
        missing = [b for b in BOUND_IDS if b not in payload.get("per_bound", {})]
        if missing:
            found.append(f"bounds never evaluated: {missing}")
        worst = payload.get("worst_ratio")
        if worst is None or not worst <= RATIO_LIMIT:
            found.append(f"worst ratio {worst} above {RATIO_LIMIT}")
        return found

    def digest(self, output) -> str:
        return hashlib.sha256(output[1].encode()).hexdigest()


class CustomWorkload:
    """Custom-family entropy and metric on small pdfs, checked against twins.

    Items are public calls, ``entropy(fam, p)`` or ``metric_d(fam, p, q)``.
    The four logarithms copy built-in closed forms, so the built-in family
    (which never integrates) is an oracle independent of the quadrature.
    The quadrature's cost grows with log x, so the pdfs are drawn near
    uniform and ``q`` moves a fixed mass of ``p`` from its largest entry to
    its smallest: the work per call then hardly depends on the seed.
    """

    name = "custom-quadrature"
    op = "call"

    def __init__(self, n: int = CUSTOM_N, specs=CUSTOM_SPECS):
        self.n = n
        self.specs = specs

    def build(self, ph: Phientropy, seed: int, ln_wrap=None) -> list:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        wrap = ln_wrap or (lambda f: f)
        items = []
        for label, ln, s, (kind, args), pairs in self.specs:
            fam = ph.families.custom_family(wrap(ln), singularity_exponent=s)
            twin = getattr(ph.families, kind)(*args)
            for _ in range(pairs):
                w = rng.dirichlet(np.full(self.n, CUSTOM_CONCENTRATION))
                v = w.copy()
                v[np.argmax(w)] -= CUSTOM_MOVE
                v[np.argmin(w)] += CUSTOM_MOVE
                p, q = ph.distributions.normalize(w), ph.distributions.normalize(v)
                for fn in ("entropy", "metric_d"):
                    items.append(Call(label, fam, fn, p, q, twin))
        return items

    def ops(self, item) -> int:
        return 1

    def run_item(self, ph: Phientropy, item: Call):
        if item.fn == "entropy":
            f = ph.functionals.entropy
            t0 = perf_counter()
            v = f(item.fam, item.p)
        else:
            f = ph.bounds.metric_d
            t0 = perf_counter()
            v = f(item.fam, item.p, item.q)
        return perf_counter() - t0, v

    def label(self, item: Call) -> str:
        return f"{item.label} {item.fn} N={item.p.n}"

    def reference(self, ph: Phientropy, item: Call) -> float:
        if item.fn == "entropy":
            return ph.functionals.entropy(item.twin, item.p)
        return ph.bounds.metric_d(item.twin, item.p, item.q)

    def problems(self, ph: Phientropy, item, output) -> list[str]:
        ref = self.reference(ph, item)
        if _close(output, ref):
            return []
        return [f"{self.label(item)}: {output!r} vs oracle {ref!r}"]

    def digest(self, output) -> str:
        return hashlib.sha256(struct.pack("<d", output)).hexdigest()


WORKLOADS = {
    "scan-default": ScanWorkload(),
    "custom-quadrature": CustomWorkload(),
}


# ---------------------------------------------------------------------------
# timing


# The calibration loop's time when the baseline host runs in its fast state
# (see BASELINE.md); scaled times read as seconds on that host.
REF_SECONDS = 0.009
_CAL_X = np.linspace(0.01, 1.0, 64)


def _cal_step(x: float, k: int) -> float:
    return x * 0.5 + math.log(1.0 + k) if k & 1 else x - 1e-3 * k


def calibration_loop(n: int = 1600) -> float:
    """A fixed mix of what the library spends its time on, about 10 ms.

    Python calls and float arithmetic, dict stores, numpy ufuncs and a
    reduction on 64 entries, and ``math.fsum``; it never calls the library,
    so a change to the library cannot move it.
    """
    acc = 0.0
    seen = {}
    for i in range(n):
        for k in range(8):
            acc = _cal_step(acc, k)
        seen[i & 31] = acc
        b = _CAL_X * (1.0 + 1e-9 * i)
        acc += float(np.sum(b * np.log(b)))
        acc = math.fsum((acc, -acc, float(b[i & 63]), 1.0))
    return acc + len(seen)


def _calibrate() -> float:
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


@dataclass
class Timing:
    """What ``measure`` records.

    ``best`` is each item's fastest wall time; ``scaled`` every repeat of each
    item, and ``setup`` every set-up after the first, at the reference speed;
    ``calibration`` every time of the calibration loop.
    """

    best: list[float]
    scaled: list[list[float]]
    setup: list[float] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    rounds: int = 0


def measure(workload, ph: Phientropy, items: list, seconds: float, outputs: list,
            setup: Optional[Callable] = None) -> Timing:
    """Run rounds over ``items`` for about ``seconds`` (at least MIN_ROUNDS).

    A round starts only if the previous one would still fit.  Each item's
    outputs are appended to ``outputs[i]``, so that traced and untraced
    rounds of one run are compared item by item.  When ``setup`` is given,
    every round after the first runs on a fresh ``setup()``, which spreads
    the set-up samples over the run instead of one burst at its start.
    The calibration loop runs before the first operation and after each one.
    """
    timing = Timing([math.inf] * len(items), [[] for _ in items])
    cal = timing.calibration
    cal.append(_calibrate())

    def scale(t: float) -> float:
        cal.append(_calibrate())
        return t * REF_SECONDS * 2.0 / (cal[-2] + cal[-1])

    deadline = perf_counter() + seconds
    last = 0.0
    while timing.rounds < MIN_ROUNDS or perf_counter() + last <= deadline:
        start = perf_counter()
        if timing.rounds and setup is not None:
            t0 = perf_counter()
            ph, items = setup()
            timing.setup.append(scale(perf_counter() - t0))
        for i, item in enumerate(items):
            t, out = workload.run_item(ph, item)
            timing.best[i] = min(timing.best[i], t)
            timing.scaled[i].append(scale(t))
            outputs[i].append(out)
        last = perf_counter() - start
        timing.rounds += 1
    return timing


class Setup:
    """Import the library afresh and build a workload's items."""

    def __init__(self, workload, seed: int, ln_wrap=None):
        self.workload = workload
        self.seed = seed
        self.ln_wrap = ln_wrap

    def __call__(self):
        ph = load_phientropy()
        return ph, self.workload.build(ph, self.seed, self.ln_wrap)


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[tuple[str, str]] = field(default_factory=list)


def verify(workload, ph: Phientropy, items: list, outputs: list) -> Verdict:
    """Gate every output; an item whose repeats differ fails on every repeat."""
    v = Verdict()
    for item, outs in zip(items, outputs):
        ops = workload.ops(item) * len(outs)
        digests = sorted({workload.digest(o) for o in outs})
        v.digests.append((workload.label(item), digests[0]))
        if len(digests) > 1:
            found = [f"repeats gave {len(digests)} different outputs"]
        else:
            found = workload.problems(ph, item, outs[0])
        v.problems += [f"{workload.label(item)}: {p}" for p in found]
        v.attempted += ops
        v.failed += ops if found else 0
    return v

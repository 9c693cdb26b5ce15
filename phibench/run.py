"""Benchmark of the phientropy checker: one workload per run.

Usage, from the root of a checkout::

    python3 phibench/run.py --workload scan-default --seed 1 --seconds 60 --trace 0

Workloads are described in ``phibench/workloads.py`` and ``BENCHMARK.json``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` a traced run reports the per-layer
metrics instead.  Lines before it are for people: the SHA-256 of every
output, problems found by the correctness gates, the error rate, and traced
per-call means.  The exit code is 0 when every gate passed, 1 when one
failed and 2 when the library sources are missing from the checkout.

The library is imported from ``src/`` of the checkout the script sits in,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

CHECKS = ("cont1", "lb", "cont2", "improved", "lesche3", "lesche4", "fannes", "relent",
          "condition1_segment")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {}

    def add(prefix, fields):
        for f in fields:
            units[f"{prefix}.{f}"] = {"calls": "count", "self_s": "s", "elems": "count"}[f]

    for c in CHECKS:
        add(f"bounds.check_{c}", ("calls", "self_s"))
    for name in ("metric_d", "h_r", "e_r"):
        add(f"bounds.{name}", ("calls", "self_s"))
    add("bounds.stability_scan", ("self_s",))
    units["bounds.entropy_calls_per_trial"] = "count"
    units["bounds.condition1_delta.hit_ratio"] = "ratio"
    units["bounds.support_skip_ratio"] = "ratio"
    units["bounds.idle_trial_ratio"] = "ratio"
    for name in ("entropy", "rel_entropy", "divergence", "entropy_max"):
        add(f"functionals.{name}", ("calls", "self_s", "elems"))
    for name in ("big_f_drop", "ln_phi", "omega_phi"):
        add(f"families.{name}", ("calls", "self_s", "elems"))
    add("numerics.sum_compensated", ("calls", "self_s", "elems"))
    for cls in ("s0", "s03", "s05", "s09", "smooth"):
        add(f"numerics.integrate.{cls}", ("calls", "self_s"))
    units["numerics.integrand_evals_per_integrate"] = "count"
    add("numerics.bisect_monotone", ("calls",))
    for name in ("sample_uniform", "sample_sparse", "sample_neighbor", "tv_norm", "sym_diff"):
        add(f"distributions.{name}", ("calls", "self_s"))
    add("cli.main", ("self_s",))
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, workload, outputs: list, rounds: int,
                      traced_best: list, base_best: list) -> dict[str, float]:
    """Per-layer values, per round of the workload, from one traced phase.

    ``outputs`` holds only the traced rounds' outputs.
    """
    spans = tracer.summary()
    values: dict[str, float] = {}
    for name in PER_LAYER:
        stem, _, fld = name.rpartition(".")
        if fld in ("calls", "self_s", "elems"):
            values[name] = spans.get(stem, {}).get(fld, 0) / rounds

    def calls(stem):
        return spans.get(stem, {}).get("calls", 0)

    trials = sum(len(outs) for outs in outputs) * workload.trials if workload.op == "trial" else 0
    values["bounds.entropy_calls_per_trial"] = _ratio(calls("functionals.entropy"), trials)
    values["bounds.idle_trial_ratio"] = _ratio(trials - calls("bounds.check_cont1"), trials)
    values["bounds.support_skip_ratio"] = _ratio(
        tracer.raised[("bounds.check_relent", "SupportError")], calls("bounds.check_relent"))
    hits = misses = 0
    if workload.op == "trial":
        for outs in outputs:
            for out in outs:
                hits += out[2]
                misses += out[3]
    values["bounds.condition1_delta.hit_ratio"] = _ratio(hits, hits + misses)
    integrates = sum(v["calls"] for k, v in spans.items() if k.startswith("numerics.integrate."))
    values["numerics.integrand_evals_per_integrate"] = _ratio(tracer.integrand_evals, integrates)
    values["trace.overhead_ratio"] = sum(traced_best) / sum(base_best) - 1.0
    return values


def end_to_end_metrics(workload, items: list, timing) -> dict[str, float]:
    """End-to-end values at the reference speed: medians of scaled repeats."""
    med = [statistics.median(s) for s in timing.scaled]
    per_op = [t / workload.ops(item) for item, t in zip(items, med)]
    return {
        "setup_s": statistics.median(timing.setup),
        "ops_per_s": sum(workload.ops(item) for item in items) / sum(med),
        "op_p50_us": statistics.median(per_op) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path = OUT):
    """Run one workload; return (result dict, lines for people)."""
    workload = wl.WORKLOADS[name]
    tracer = Tracer() if trace else None
    setup = wl.Setup(workload, seed, tracer.counting if trace else None)
    ph, items = setup()
    outputs = [[] for _ in items]
    lines = [f"workload {name} seed {seed}: {len(items)} items"]
    if workload.op == "trial":
        lines.append("every scan starts cold: condition1_delta cache cleared before each")
    if not trace:
        timing = wl.measure(workload, ph, items, seconds, outputs, setup)
        rounds = timing.rounds
        metrics = end_to_end_metrics(workload, items, timing)
        units = END_TO_END
        cal = statistics.median(timing.calibration)
        ops = sum(workload.ops(item) for item in items)
        lines.append(f"calibration loop: median {cal * 1e3:.4g} ms over {len(timing.calibration)}"
                     f" runs, reference {wl.REF_SECONDS * 1e3:.4g} ms")
        lines.append(f"wall clock, best repeats: {ops / sum(timing.best):.6g} {workload.op}s/s")
    else:
        # Untraced and traced rounds alternate, so that both see the same
        # state of the host and their difference is the tracing overhead.
        traced_outputs = [[] for _ in items]
        base_best = best = [math.inf] * len(items)
        rounds = 0
        deadline = perf_counter() + seconds
        last = 0.0
        while rounds == 0 or perf_counter() + last <= deadline:
            start = perf_counter()
            base = wl.measure(workload, ph, items, 0, outputs)
            base_best = list(map(min, base_best, base.best))
            tracer.install(ph.modules())
            try:
                traced = wl.measure(workload, ph, items, 0, traced_outputs)
            finally:
                tracer.uninstall()
            best = list(map(min, best, traced.best))
            rounds += traced.rounds
            last = perf_counter() - start
        metrics = per_layer_metrics(tracer, workload, traced_outputs, rounds, best, base_best)
        units = PER_LAYER
        for outs, traced in zip(outputs, traced_outputs):
            outs.extend(traced)
        path = out_dir / f"{name}-seed{seed}.npz"
        tracer.write(path)
        lines.append(f"spans: {len(tracer.nid)} written to {os.path.relpath(path, ROOT)}")
        for span in ("families.big_f_drop", "functionals.entropy", "numerics.integrate.s0",
                     "numerics.integrate.s03", "numerics.integrate.s05", "numerics.integrate.s09"):
            mean = tracer.mean_duration(span)
            if mean is not None:
                lines.append(f"traced mean per call {span}: {mean * 1e6:.6g} us")
    verdict = wl.verify(workload, ph, items, outputs)
    if workload.op == "trial":
        for label, digest in verdict.digests:
            lines.append(f"sha256 {name} {label}: {digest}")
    else:
        whole = hashlib.sha256("".join(d for _, d in verdict.digests).encode()).hexdigest()
        lines.append(f"sha256 {name} seed={seed} all {len(items)} results: {whole}")
    lines.append(f"rounds {rounds}; error_rate {_ratio(verdict.failed, verdict.attempted):.6g} "
                 f"({verdict.failed} of {verdict.attempted} {workload.op}s)")
    for p in verdict.problems:
        lines.append(f"GATE FAILED: {p}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phientropy" / "__init__.py").is_file():
        print(f"phibench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line, file=sys.stderr if line.startswith("GATE FAILED") else sys.stdout)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands
--------
- ``families``: catalogue of built-in logarithm families.
- ``eval``: evaluate ln / exp / F / omega / ln' for a family on points.
- ``entropy``: entropy of a pdf file.
- ``divergence``: relative entropy and Bregman divergence between two pdfs.
- ``bounds``: run every applicable inequality check on given inputs.
- ``scan``: randomized stability scan; see :func:`phientropy.scan.stability_scan`.
- ``fisher``: both Fisher matrices for a built-in demo model.

Output is JSON by default, with sorted keys and fixed separators so that
identical inputs produce byte-identical output.  ``--format table`` prints
a human-readable table carrying a "not for parsing" banner.

Exit codes: 0 success (all checked bounds hold), 1 input or usage error,
2 a checked inequality failed beyond tolerance, i.e. some evaluated report
has ``holds == False`` (a mathematical violation, hence an implementation
bug worth failing CI over).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import ScanConfig, default_family_grid, run_bound_checks, stability_scan
from .distributions import DEFAULT_VALIDATION_TOL, Pdf, validate
from .errors import NonDifferentiableError, ParamError, PhiEntropyError
from .families import (
    LogFamily,
    big_f,
    builtin_catalogue,
    exp_phi,
    family_from_json,
    family_to_json,
    ln_phi,
    ln_phi_prime,
    omega_phi,
)
from .fisher import (
    bernoulli_model,
    binomial_mixture_model,
    expansion_check,
    fisher_g1,
    fisher_g2,
    softmax_model,
)
from .functionals import divergence, entropy, rel_entropy, resolve_method

TABLE_BANNER = "# human-readable output; not for parsing (use --format json)"

_EVAL_FNS = {
    "ln": ln_phi,
    "exp": exp_phi,
    "big-f": big_f,
    "omega": omega_phi,
    "ln-prime": ln_phi_prime,
}


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(_json_line(payload))
    else:
        sys.stdout.write(TABLE_BANNER + "\n")
        _emit_table(payload, prefix="")


def _emit_table(obj, prefix: str):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _emit_table(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _emit_table(v, f"{prefix}{i}.")
    else:
        sys.stdout.write(f"{prefix[:-1]:<40} {obj}\n")


def _load_family(spec: str) -> LogFamily:
    return family_from_json(json.loads(spec))


def _load_pdf(path: str, tol: float = DEFAULT_VALIDATION_TOL) -> Pdf:
    """The pdf in a .json or .csv file; each error met reading it names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if path.endswith(".json"):
            data = json.loads(text)
            if not (isinstance(data, dict) and isinstance(data.get("weights"), list)):
                raise ParamError("a JSON pdf must be an object holding a 'weights' list")
            return validate(data["weights"], tol=tol)
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if lines and not _is_number(lines[0]):
            lines = lines[1:]  # optional header
        return validate([float(ln) for ln in lines], tol=tol)
    except (PhiEntropyError, ValueError) as exc:  # json's errors are ValueErrors
        raise ParamError(f"{path}: {exc}") from exc


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _cmd_families(args) -> int:
    _emit({"families": builtin_catalogue()}, args.format)
    return 0


def _cmd_eval(args) -> int:
    fam = _load_family(args.family)
    fn = _EVAL_FNS[args.fn]
    values = [{"x": x, "value": float(np.asarray(fn(fam, x)))} for x in args.x]
    _emit({"family": family_to_json(fam), "fn": args.fn, "values": values}, args.format)
    return 0


def _cmd_entropy(args) -> int:
    fam = _load_family(args.family)
    p = _load_pdf(args.pdf, args.validate_tol)
    method = resolve_method(fam, "entropy", args.method)
    _emit(
        {"entropy": entropy(fam, p, method), "family": family_to_json(fam), "method": method},
        args.format,
    )
    return 0


def _cmd_divergence(args) -> int:
    fam = _load_family(args.family)
    p = _load_pdf(args.p, args.validate_tol)
    q = _load_pdf(args.q, args.validate_tol)
    payload: dict = {"family": family_to_json(fam)}
    if args.kind in ("relative", "both"):
        payload["rel_entropy"] = rel_entropy(fam, p, q, args.method)
    if args.kind in ("bregman", "both"):
        payload["divergence"] = divergence(
            fam, p, q, "generic" if args.method in ("omega", "integral") else args.method
        )
    _emit(payload, args.format)
    return 0


def _cmd_bounds(args) -> int:
    fam = _load_family(args.family)
    p = _load_pdf(args.p, args.validate_tol)
    q = _load_pdf(args.q, args.validate_tol)
    r = _load_pdf(args.r, args.validate_tol) if args.r else None
    reports, skipped = run_bound_checks(
        fam,
        p,
        q,
        r,
        mix_lambda=args.mix_lambda,
        mix_mu=args.mix_mu,
        epsilon=args.epsilon,
    )
    all_hold = all(rep.holds for rep in reports)
    payload = {
        "family": family_to_json(fam),
        "reports": [rep.to_json() for rep in reports],
        "skipped": skipped,
        "all_hold": all_hold,
    }
    _emit(payload, args.format)
    return 0 if all_hold else 2


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def _cmd_scan(args) -> int:
    if args.families == "default":
        fams = default_family_grid()
    else:
        fams = tuple(family_from_json(s) for s in json.loads(args.families))
    config = ScanConfig(
        families=fams,
        dims=_parse_dims(args.dims),
        trials=args.trials,
        seed=args.seed,
        modes=tuple(args.modes.split(",")),
    )
    report = stability_scan(config)
    _emit(report.to_json(), args.format)
    if args.timings:
        sys.stderr.write(_json_line({"timings": report.timings}))
    return 2 if report.violations else 0


_MODELS = {
    "bernoulli": lambda spec: bernoulli_model(),
    "softmax": lambda spec: softmax_model(int(spec or 4)),
    "binmix": lambda spec: binomial_mixture_model(int(spec or 6)),
}


def _cmd_fisher(args) -> int:
    fam = _load_family(args.family)
    name, _, spec = args.model.partition(":")
    if name not in _MODELS:
        raise PhiEntropyError(f"unknown model {args.model!r}; use " + ", ".join(_MODELS))
    model = _MODELS[name](spec)
    theta = np.array([float(t) for t in args.theta.split(",")])
    payload: dict = {
        "family": family_to_json(fam),
        "model": model.name,
        "theta": theta.tolist(),
        "g2": fisher_g2(fam, model, theta).tolist(),
    }
    try:
        payload["g1"] = fisher_g1(fam, model, theta).tolist()
    except NonDifferentiableError:
        pass  # ln_phi has no derivative at 1
    if args.expansion:
        dtheta = np.full(model.dim_theta, args.dtheta)
        rep = expansion_check(fam, model, theta, dtheta)
        payload["expansion"] = {
            "steps": list(rep.steps),
            "r1": list(rep.r1),
            "r2": list(rep.r2),
            "sym": list(rep.sym),
            "order1": rep.order1,
            "order2": rep.order2,
        }
    _emit(payload, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phientropy",
        description="Deformed-logarithm entropies, divergences and stability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "table"), default="json")

    def pdf_tol(sp):
        sp.add_argument(
            "--validate-tol", type=float, default=DEFAULT_VALIDATION_TOL,
            help="unit-sum tolerance when reading pdf files",
        )

    sp = sub.add_parser("families", help="list built-in families")
    common(sp)
    sp.set_defaults(func=_cmd_families)

    sp = sub.add_parser("eval", help="evaluate a family function on points")
    sp.add_argument("--family", required=True, help='family spec JSON, e.g. {"kind":"shannon"}')
    sp.add_argument("--fn", choices=sorted(_EVAL_FNS), required=True)
    sp.add_argument("--x", type=float, action="append", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("entropy", help="entropy of a pdf")
    sp.add_argument("--family", required=True)
    sp.add_argument("--pdf", required=True, help="pdf file (.json or .csv)")
    sp.add_argument("--method", choices=("auto", "generic", "closed_form", "deduced_log"), default="auto")
    common(sp)
    pdf_tol(sp)
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("divergence", help="relative entropy / Bregman divergence")
    sp.add_argument("--family", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--kind", choices=("relative", "bregman", "both"), default="both")
    sp.add_argument("--method", choices=("auto", "generic", "closed_form", "omega", "integral"), default="auto")
    common(sp)
    pdf_tol(sp)
    sp.set_defaults(func=_cmd_divergence)

    sp = sub.add_parser("bounds", help="run all applicable inequality checks")
    sp.add_argument("--family", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--r", default=None, help="reference pdf for the relative-entropy bounds")
    sp.add_argument("--mix-lambda", type=float, default=1.0)
    sp.add_argument("--mix-mu", type=float, default=0.0)
    sp.add_argument("--epsilon", type=float, default=None, help="enable the segment-continuity check")
    common(sp)
    pdf_tol(sp)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("scan", help="randomized stability scan")
    sp.add_argument("--trials", type=int, default=ScanConfig.trials)
    sp.add_argument("--dims", default=",".join(map(str, ScanConfig.dims)))
    sp.add_argument("--seed", type=int, default=ScanConfig.seed)
    sp.add_argument("--families", default="default", help="'default' or a JSON array of family specs")
    sp.add_argument("--modes", default=",".join(ScanConfig.modes))
    sp.add_argument(
        "--timings", action="store_true",
        help="also print each mode's trials and wall seconds to stderr (stdout is unchanged)",
    )
    common(sp)
    sp.set_defaults(func=_cmd_scan)

    sp = sub.add_parser("fisher", help="Fisher matrices for a demo model")
    sp.add_argument("--family", required=True)
    sp.add_argument("--model", default="bernoulli", help="bernoulli | softmax:N | binmix:M")
    sp.add_argument("--theta", required=True, help="comma-separated parameter vector")
    sp.add_argument("--expansion", action="store_true")
    sp.add_argument("--dtheta", type=float, default=1e-2)
    common(sp)
    sp.set_defaults(func=_cmd_fisher)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PhiEntropyError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(parser.format_usage())
        return 1


if __name__ == "__main__":
    sys.exit(main())

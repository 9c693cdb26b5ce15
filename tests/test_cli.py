import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import phientropy as pe
import phientropy.bounds as bounds
import phientropy.cli as cli
import phientropy.scan as scan
import phientropy.table as table
from phientropy.errors import InfeasibleEpsilon


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_pdf(tmp_path, name, weights):
    path = tmp_path / name
    path.write_text(json.dumps({"weights": weights}))
    return str(path)


SHANNON = '{"kind":"shannon"}'
TSALLIS = '{"kind":"tsallis","kappa":0.5}'

# SHA-256 of what ``phientropy scan --trials 1000 --seed 3898507391`` prints,
# per numpy SIMD dispatch level (see tests/test_golden.py).
NOISE_SCAN_SHA256 = {
    "X86_V4": "29e53ec89d42c4c5b373486a15e0013c1720e754aa14aa3583e3524bc2308990",
    "X86_V3": "ec53a899fd54a981e8c4d30765c39c4d3ebab23a8c83454515848274befc17c1",
}


def break_cont1(monkeypatch):
    """Make the check table's cont1 row report lhs = rhs + 1, a violation.

    The row's left side reads a batch value "d + 1", registered for the test;
    the single-input checks and the scan each read their module's table.
    """
    d = table._VALUES["d"]
    monkeypatch.setitem(table._VALUES, "d + 1", d._replace(compute=lambda b: d.compute(b) + 1.0))
    rows = [dataclasses.replace(c, sides=("d + 1", "d")) if c.bound_id == "cont1" else c for c in bounds.CHECKS]
    monkeypatch.setattr(bounds, "CHECKS", tuple(rows))
    monkeypatch.setattr(scan, "CHECKS", tuple(rows))


class TestFamilies:
    def test_lists_six_builtins(self, capsys):
        code, out, _ = run(capsys, "families")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["families"]) == 6


class TestEval:
    @pytest.mark.parametrize("kind", ["tsallis", "kaniadakis"])
    def test_tiny_kappa_is_an_input_error(self, capsys, kind):
        spec = json.dumps({"kind": kind, "kappa": 1e-6})
        code, out, err = run(capsys, "eval", "--family", spec, "--fn", "ln", "--x", "0.3")
        assert code == 1 and out == ""
        assert "use kind 'shannon'" in err

    def test_ln_shannon(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", SHANNON, "--fn", "ln", "--x", str(math.e))
        assert code == 0
        payload = json.loads(out)
        assert payload["values"][0]["value"] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_family_is_input_error(self, capsys):
        spec = '{"kind":"tsallis","kappa":null}'
        code, out, err = run(capsys, "eval", "--family", spec, "--fn", "ln", "--x", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "kappa" in err

    def test_nan_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "eval", "--family", TSALLIS, "--fn", "exp", "--x", "nan")
        assert (code, out) == (1, "")
        assert err.startswith("error: exp_phi requires x that is not NaN")

    def test_multiple_points(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", TSALLIS, "--fn", "omega", "--x", "1.0", "--x", "2.0"
        )
        payload = json.loads(out)
        assert payload["values"][0]["value"] == 0.0
        assert payload["values"][1]["value"] == pytest.approx(2 * (1 - 2**-0.5), rel=1e-12)


class TestEntropy:
    def test_matches_library(self, capsys, tmp_path):
        pdf = write_pdf(tmp_path, "p.json", [0.25, 0.25, 0.25, 0.25])
        code, out, _ = run(capsys, "entropy", "--family", TSALLIS, "--pdf", pdf)
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy"] == pytest.approx(1.0, rel=1e-12)
        assert payload["method"] == "closed_form"

    def test_csv_with_header(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("weight\n0.5\n0.5\n")
        code, out, _ = run(capsys, "entropy", "--family", SHANNON, "--pdf", str(path))
        assert code == 0
        assert json.loads(out)["entropy"] == pytest.approx(math.log(2), rel=1e-12)

    def test_csv_without_header(self, capsys, tmp_path):
        # Every line a number: the first is a weight, not a header.
        path = tmp_path / "p.csv"
        path.write_text("0.25\n\n0.75\n")
        code, out, _ = run(capsys, "entropy", "--family", SHANNON, "--pdf", str(path))
        assert code == 0
        assert json.loads(out)["entropy"] == pytest.approx(-0.25 * math.log(0.25) - 0.75 * math.log(0.75), rel=1e-12)

    def test_invalid_pdf_is_input_error(self, capsys, tmp_path):
        pdf = write_pdf(tmp_path, "bad.json", [0.5, 0.4])
        code, out, err = run(capsys, "entropy", "--family", SHANNON, "--pdf", pdf)
        assert code == 1
        assert "error" in err and "usage" in err

    @pytest.mark.parametrize("text", ["[0.5, 0.5]", "3", '"weights"', '{"w": [0.5, 0.5]}', '{"weights": 0.5}'])
    def test_malformed_json_pdf_is_input_error(self, capsys, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, out, err = run(capsys, "entropy", "--family", SHANNON, "--pdf", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: a JSON pdf must be an object holding a 'weights' list")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "entropy", "--family", SHANNON, "--pdf", "/nope.json")
        assert code == 1

    def test_kappa_zero_hint(self, capsys, tmp_path):
        pdf = write_pdf(tmp_path, "p.json", [0.5, 0.5])
        code, _, err = run(
            capsys, "entropy", "--family", '{"kind":"tsallis","kappa":0.0}', "--pdf", pdf
        )
        assert code == 1 and "shannon" in err


class TestDivergence:
    def test_both_kinds(self, capsys, tmp_path):
        p = write_pdf(tmp_path, "p.json", [0.5, 0.5])
        q = write_pdf(tmp_path, "q.json", [0.25, 0.75])
        code, out, _ = run(capsys, "divergence", "--family", SHANNON, "--p", p, "--q", q)
        assert code == 0
        payload = json.loads(out)
        want = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert payload["rel_entropy"] == pytest.approx(want, rel=1e-12)
        assert payload["divergence"] == pytest.approx(want, rel=1e-10)


class TestBounds:
    def test_all_hold_exit_zero(self, capsys, tmp_path):
        p = write_pdf(tmp_path, "p.json", [0.5, 0.3, 0.2])
        q = write_pdf(tmp_path, "q.json", [0.25, 0.5, 0.25])
        r = write_pdf(tmp_path, "r.json", [0.4, 0.35, 0.25])
        code, out, _ = run(
            capsys, "bounds", "--family", TSALLIS, "--p", p, "--q", q, "--r", r,
            "--epsilon", "0.5", "--mix-lambda", "0.6", "--mix-mu", "0.55",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_hold"] is True
        ids = [rep["bound_id"] for rep in payload["reports"]]
        assert ids == [
            "cont1", "lb", "cont2", "improved", "lesche3", "relent_I", "relent_D",
            "condition1_segment",
        ]

    def test_segment_skipped_when_hypothesis_fails(self, capsys, tmp_path):
        p = write_pdf(tmp_path, "p.json", [0.5, 0.3, 0.2])
        q = write_pdf(tmp_path, "q.json", [0.25, 0.5, 0.25])
        code, out, _ = run(
            capsys, "bounds", "--family", TSALLIS, "--p", p, "--q", q, "--epsilon", "0.5"
        )
        assert code == 0
        assert "condition1_segment" in json.loads(out)["skipped"]

    def test_shannon_gets_lesche4_fannes(self, capsys, tmp_path):
        p = write_pdf(tmp_path, "p.json", [0.5, 0.3, 0.2])
        q = write_pdf(tmp_path, "q.json", [0.45, 0.35, 0.2])
        code, out, _ = run(capsys, "bounds", "--family", SHANNON, "--p", p, "--q", q)
        payload = json.loads(out)
        ids = {rep["bound_id"] for rep in payload["reports"]}
        assert {"lesche4", "fannes"} <= ids

    def test_violation_exit_two(self, capsys, tmp_path, monkeypatch):
        # force a fake violation to show the CI-facing exit path
        break_cont1(monkeypatch)
        p = write_pdf(tmp_path, "p.json", [0.5, 0.5])
        q = write_pdf(tmp_path, "q.json", [0.25, 0.75])
        code, out, _ = run(capsys, "bounds", "--family", SHANNON, "--p", p, "--q", q)
        assert code == 2
        assert json.loads(out)["all_hold"] is False

    def test_tiny_reference_weight(self, capsys, tmp_path):
        p = write_pdf(tmp_path, "p.json", [0.5, 0.5])
        q = write_pdf(tmp_path, "q.json", [0.6, 0.4])
        r = write_pdf(tmp_path, "r.json", [1.0, 1e-200])
        argv = ("bounds", "--p", p, "--q", q, "--r", r)
        code, out, _ = run(capsys, *argv, "--family", '{"kind":"piecewise_linear","base":2.0}')
        assert code == 0
        relent_i = [rep for rep in json.loads(out)["reports"] if rep["bound_id"] == "relent_I"]
        assert relent_i[0]["holds"] and math.isfinite(relent_i[0]["lhs"])
        code, out, err = run(capsys, *argv, "--family", '{"kind":"tsallis","kappa":0.9}')
        assert code == 1 and out == ""
        assert "error: reference weight too small: a ratio to r overflows" in err

    @pytest.mark.parametrize(
        "family, r2", [('{"kind":"tsallis","kappa":0.9}', 1e-200), (SHANNON, 5e-324)]
    )
    def test_tiny_reference_weight_prints_no_numpy_warning(self, tmp_path, family, r2):
        # A fresh interpreter with Python's default warning filters, so a
        # numpy RuntimeWarning would reach stderr as it does for a user.
        p = write_pdf(tmp_path, "p.json", [0.5, 0.5])
        q = write_pdf(tmp_path, "q.json", [0.6, 0.4])
        r = write_pdf(tmp_path, "r.json", [1.0, r2])
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "phientropy.cli", "bounds", "--family", family,
             "--p", p, "--q", q, "--r", r],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: reference weight too small")
        assert "Warning" not in proc.stderr

    def test_subnormal_reference_relent_d_is_finite(self, tmp_path):
        # ln_phi(1e-320) = -inf for tsallis(-0.99); p and q agree there.
        p = write_pdf(tmp_path, "p.json", [0.5, 0.5, 1e-320])
        q = write_pdf(tmp_path, "q.json", [0.4, 0.6, 1e-320])
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run(
            [sys.executable, "-m", "phientropy.cli", "bounds", "--family", '{"kind":"tsallis","kappa":-0.99}',
             "--p", p, "--q", q, "--r", p],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""

        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        payload = json.loads(proc.stdout, parse_constant=refuse)
        assert payload["all_hold"] is True
        assert "relent_D" in {rep["bound_id"] for rep in payload["reports"]}

    def test_table_format_banner(self, capsys, tmp_path):
        p = write_pdf(tmp_path, "p.json", [0.5, 0.5])
        q = write_pdf(tmp_path, "q.json", [0.25, 0.75])
        code, out, _ = run(
            capsys, "bounds", "--family", SHANNON, "--p", p, "--q", q, "--format", "table"
        )
        assert code == 0
        assert out.splitlines()[0] == cli.TABLE_BANNER


class TestScan:
    def test_byte_identical_runs(self, capsys):
        args = ("scan", "--trials", "120", "--dims", "2,4", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_exit_zero_when_every_report_holds(self, capsys, tmp_path):
        # A relent_I report with lhs ~ 1.2e-15 and rhs ~ 6.1e-16: ratio ~
        # 1.95, yet it holds within the tolerance, so the exit code is 0.  The
        # scan below evaluated it (a tsallis(0.5) hill climb at N = 2) before
        # its lanes drew one block of variates each.  Its worst is a relent_D
        # report of ratio 11/13 (tsallis(0.1), disjoint p and q, r zero where
        # q is not): a noise report never becomes a worst.
        p = write_pdf(tmp_path, "p.json", [0.0, 0.9999999999999999])
        q = write_pdf(tmp_path, "q.json", [0.0, 1.0])
        r = write_pdf(tmp_path, "r.json", [0.6979179894341754, 0.30208201056582457])
        code, out, _ = run(capsys, "bounds", "--family", TSALLIS, "--p", p, "--q", q, "--r", r)
        assert code == 0
        payload = json.loads(out)
        relent_i = {rep["bound_id"]: rep for rep in payload["reports"]}["relent_I"]
        assert relent_i["lhs"] == 1.184233193519278e-15 and relent_i["rhs"] == 6.059950145236466e-16
        assert relent_i["ratio"] > 1.95 and relent_i["holds"] and payload["all_hold"]

        code, out, _ = run(capsys, "scan", "--trials", "1000", "--seed", "3898507391")
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_ratio"] == 0.8461538461538461
        assert payload["witness"]["report"]["bound_id"] == "relent_D"
        level = next((lv for lv in NOISE_SCAN_SHA256 if __cpu_features__.get(lv)), None)
        if level is not None:
            assert hashlib.sha256(out.encode()).hexdigest() == NOISE_SCAN_SHA256[level]

    def test_violation_exit_two(self, capsys, monkeypatch):
        break_cont1(monkeypatch)
        code, out, _ = run(capsys, "scan", "--trials", "30", "--dims", "2", "--seed", "5")
        assert code == 2
        assert json.loads(out)["per_bound"]["cont1"]["witness"]["report"]["holds"] is False

    @pytest.mark.parametrize(
        "argv",
        [("--dims", ","), ("--dims", "2,0"), ("--families", "[]")],
        ids=["no-dims", "dim-zero", "no-families"],
    )
    def test_empty_or_bad_config_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, "scan", "--trials", "5", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_timings_on_stderr_leave_stdout_unchanged(self, capsys):
        args = ("scan", "--trials", "300", "--seed", "5")
        code1, out1, err1 = run(capsys, *args)
        code2, out2, err2 = run(capsys, *args, "--timings")
        assert code1 == code2 == 0
        assert out1 == out2 and err1 == ""
        timings = json.loads(err2)["timings"]
        assert set(timings) == {"uniform", "sparse", "neighbor", "hillclimb"}
        assert sum(t["trials"] for t in timings.values()) == json.loads(out1)["trials"]
        assert all(t["seconds"] >= 0.0 for t in timings.values())

    def test_timings_split_trials_by_mode(self):
        # 2 families x 1 dim: runs of two slots per mode, the modes cycling.
        config = bounds.ScanConfig(
            families=(pe.shannon(), pe.tsallis(0.5)), dims=(2,), trials=20,
            modes=("uniform", "sparse"), seed=3,
        )
        timings = bounds.stability_scan(config).timings
        assert {m: t["trials"] for m, t in timings.items()} == {"uniform": 10, "sparse": 10}

    def test_defaults_are_scan_config_defaults(self, capsys):
        code, out, _ = run(capsys, "scan")
        assert code == 0
        assert out == cli._json_line(bounds.stability_scan(bounds.ScanConfig()).to_json())

    def test_radius_lookup_error_fails_the_scan(self, capsys, monkeypatch):
        # No applicable check is dropped silently: a trial whose segment
        # radius cannot be looked up fails the scan with that error.  The
        # scan solves its radii through condition1_radii, which gives the
        # error of a pair in place of its radius.
        real = scan.condition1_radii

        def radii(pairs):
            return [
                InfeasibleEpsilon("no radius for this family") if fam == pe.tsallis(0.5) else radius
                for (fam, _), radius in zip(pairs, real(pairs))
            ]

        monkeypatch.setattr(scan, "condition1_radii", radii)
        with pytest.raises(InfeasibleEpsilon, match="^no radius for this family$"):
            bounds.stability_scan(bounds.ScanConfig(trials=100))
        code, out, err = run(capsys, "scan", "--trials", "100")
        assert code == 1 and out == ""
        assert err.startswith("error: no radius for this family\n")

    def test_ratio_tol_flag_is_gone(self, capsys):
        assert cli.main(["scan", "--trials", "5", "--ratio-tol", "1e-9"]) == 1

    def test_hill_steps_flag_is_gone(self, capsys):
        assert cli.main(["scan", "--trials", "5", "--hill-steps", "3"]) == 1

    def test_custom_family_list(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--trials", "40", "--dims", "2",
            "--families", '[{"kind":"shannon"},{"kind":"tsallis","kappa":0.5}]',
            "--modes", "uniform",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 40
        assert payload["worst_ratio"] <= 1.0 + 1e-9

    def test_witnesses_replay_through_bounds_command(self, capsys, tmp_path):
        code, out, _ = run(capsys, "scan", "--trials", "300", "--seed", "17")
        assert code == 0
        scan_payload = json.loads(out)
        replayed = 0
        for bid, stats in scan_payload["per_bound"].items():
            wit = stats["witness"]
            if wit is None:
                continue
            argv = [
                "bounds",
                "--family", json.dumps(wit["family"]),
                "--p", write_pdf(tmp_path, f"{bid}_p.json", wit["p"]),
                "--q", write_pdf(tmp_path, f"{bid}_q.json", wit["q"]),
            ]
            if "r" in wit:
                argv += ["--r", write_pdf(tmp_path, f"{bid}_r.json", wit["r"])]
            params = wit.get("params")
            if params:
                argv += [
                    "--mix-lambda", repr(params["lam"]),
                    "--mix-mu", repr(params["mu"]),
                    "--epsilon", repr(params["epsilon"]),
                ]
            code, out2, _ = run(capsys, *argv)
            assert code == 0
            reports = json.loads(out2)["reports"]
            match = [rep for rep in reports if rep["bound_id"] == bid]
            assert match and match[0] == wit["report"]
            replayed += 1
        assert replayed >= 8


class TestFisherCommand:
    def test_bernoulli_matrices(self, capsys):
        code, out, _ = run(
            capsys, "fisher", "--family", TSALLIS, "--model", "bernoulli", "--theta", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["g1"][0][0] == pytest.approx(6.0, rel=1e-5)
        assert payload["g2"][0][0] == pytest.approx(3 * math.sqrt(2), rel=1e-5)

    def test_expansion_flag(self, capsys):
        code, out, _ = run(
            capsys, "fisher", "--family", SHANNON, "--model", "bernoulli",
            "--theta", "0.3", "--expansion",
        )
        payload = json.loads(out)
        assert payload["expansion"]["order2"] >= 2.8

    def test_theta_of_the_wrong_length_is_input_error(self, capsys):
        code, out, err = run(capsys, "fisher", "--family", SHANNON, "--model", "binmix", "--theta", "0.2")
        assert (code, out) == (1, "")
        assert err.startswith("error: theta must have shape (2,)")

    def test_unknown_model(self, capsys):
        code, _, err = run(
            capsys, "fisher", "--family", SHANNON, "--model", "gauss", "--theta", "0.5"
        )
        assert code == 1

    def test_g1_left_out_where_ln_phi_has_no_derivative_at_one(self, capsys):
        code, out, _ = run(
            capsys, "fisher", "--family", '{"kind":"piecewise_linear","base":2.0}',
            "--model", "bernoulli", "--theta", "0.3", "--expansion",
        )
        assert code == 0
        payload = json.loads(out)
        assert "g1" not in payload and payload["g2"][0][0] > 0
        assert math.isnan(payload["expansion"]["order1"])


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["families", "--bogus"]) == 1

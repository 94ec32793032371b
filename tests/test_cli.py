"""Command-line front end: subcommands, exit codes, structured output
round-trips, environment catalog paths, and determinism."""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hypersym
from hypersym import cli, verify

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cold(*argv):
    """The CLI in a fresh process, on this checkout, without a user
    catalog path."""
    env = dict(os.environ)
    env.pop(cli.ENV_CATALOG, None)
    src = str(Path(hypersym.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "hypersym.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def parse_structured(text):
    """Blocks of `key = value` lines separated by blank lines."""
    blocks = []
    for chunk in text.strip().split("\n\n"):
        fields = {}
        for line in chunk.splitlines():
            key, sep, value = line.partition(" = ")
            assert sep, f"not a key = value line: {line!r}"
            fields[key] = value
        blocks.append(fields)
    return blocks


def test_list_text_and_structured(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "hyp4" in out and "ev21" in out
    code, out, _ = run(capsys, "--format", "structured", "list")
    assert code == 0
    block = parse_structured(out)[0]
    assert block["entries"] == "28"
    assert block["entry[0].id"] == "hyp2"
    code, out, _ = run(capsys, "--format", "structured", "list",
                       "--role", "evolution")
    assert parse_structured(out)[0]["entries"] == "15"


def test_show_entry_and_transform(capsys):
    code, out, _ = run(capsys, "--format", "structured", "show", "hyp4")
    assert code == 0
    block = parse_structured(out)[0]
    assert block["id"] == "hyp4"
    assert block["role"] == "hyperbolic"
    assert block["expr"] == "exp(u) + exp(-2*u)"
    code, out, _ = run(capsys, "show", "T1")
    assert code == 0
    assert "S1" in out


def test_show_unknown_id_is_usage_error(capsys):
    code, out, err = run(capsys, "show", "nosuch")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_verify_exact_pair(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "verify", "hyp4", "ev12", "--samples", "5")
    assert code == 0
    block = parse_structured(out)[0]
    assert block["pair"] == "hyp4 ev12 x"
    assert block["residual_is_zero"] == "true"
    assert float(block["numeric_max_residual"]) < 1e-9
    assert block["samples"] == "5"


def test_verify_direction_flag(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "verify", "hyp4", "ev12", "--dir", "y")
    assert code == 0
    assert parse_structured(out)[0]["pair"] == "hyp4 ev12 y"


def test_verify_failing_pair_exit_and_localization(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "verify", "hyp3", "ev12")
    assert code == 1
    block = parse_structured(out)[0]
    assert block["residual_is_zero"] == "false"
    assert block["failing_count"] == "5"
    assert block["failing[0].monomial"] == "u1^3*u2"
    assert block["failing[0].coefficient"] == "10"
    assert block["cleared_denominator"] == "exp(u)"


def test_verify_param_binding(capsys):
    code, out, _ = run(capsys, "--format", "structured",
                       "verify", "S3", "ev17", "--param", "mu=0")
    assert code == 0
    assert parse_structured(out)[0]["pair"] == "S3 ev17 x mu=0"
    # without the forced binding the symbolic residual persists
    code, out, _ = run(capsys, "verify", "S3", "ev17")
    assert code == 1


def test_verify_rejects_bad_parameter_value(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "S3", "ev17", "--param", "mu=oops"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_admissibility_violation_is_data_error(capsys):
    code, _, err = run(capsys, "verify", "S1", "ev11", "--param", "a=0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("flag, message", [
    (["--tol", "0"], "error: tolerance must be positive"),
    (["--samples", "-1"], "error: samples must be nonnegative"),
    (["--tol", "nan", "--samples", "3"], "error: tolerance must be finite"),
    (["--tol", "inf"], "error: tolerance must be finite"),
])
def test_verify_rejects_bad_numeric_options(capsys, flag, message):
    code, out, err = run(capsys, "verify", "hyp4", "ev12", *flag)
    assert code == 2 and out == ""
    assert err.strip() == message


def test_verify_all_rejects_negative_jobs(capsys):
    code, out, err = run(capsys, "verify-all", "--jobs", "-1")
    assert code == 2 and out == ""
    assert err.strip() == "error: jobs must be nonnegative"


def test_verify_all_has_no_param_option(capsys):
    # verify-all checks the shipped claims at their own bindings; a --param
    # it ignored would report the unbound verdicts as if bound
    with pytest.raises(SystemExit) as exc:
        cli.main(["--format", "structured", "verify-all", "--jobs", "1",
                  "--param", "mu=1", "--param", "c=5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --param" in captured.err


def test_verify_refuses_a_binding_that_splits_a_relation(capsys):
    """a = 0 turns the fa-cubic into (s + t)^2 (2s - t): S6 and S3 use it
    and get an error, not a verdict.  c = 4 splits sqrt(c), which S6 does
    not use, so its verdict stands."""
    for argv in (["S6", "ev21", "--param", "a=0"],
                 ["S3", "ev17", "--param", "a=0", "--param", "mu=0"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert "error:" in err and "reducible" in err
    code, out, _ = run(capsys, "verify", "S6", "ev21", "--param", "c=4")
    assert code == 0 and "residual zero" in out


def test_lemma_output(capsys):
    code, out, _ = run(capsys, "lemma", "ev17")
    assert code == 0
    assert "g = (-1)/(2*u1)" in out
    code, out, _ = run(capsys, "lemma", "ev17", "--hyp", "S3")
    assert code == 0
    assert "first_condition_zero = true" in out
    assert "second_condition_zero = true" in out


def test_lemma_failing_conditions_exit_one(capsys):
    # hyp3 does not satisfy the conditions for ev17's g
    code, out, _ = run(capsys, "lemma", "ev17", "--hyp", "hyp3")
    assert code == 1


def test_transform_command(capsys):
    code, out, _ = run(capsys, "transform")
    assert code == 0
    code, out, _ = run(capsys, "--format", "structured", "transform", "T1")
    assert code == 0
    block = parse_structured(out)[0]
    assert block["verified_convention"] == "second-coefficient-plus"
    assert block["convention[0].fitted.c1"] == "1/3"
    assert block["convention[0].fitted.c2"] == "1/6*a^3"
    assert block["status"] == "verified"


@pytest.mark.parametrize("tid", ["", "nosuch"])
def test_transform_unknown_id_is_data_error(capsys, tid):
    # an empty id names no transform: it does not mean "check all"
    code, out, err = run(capsys, "transform", tid)
    assert (code, out) == (2, "")
    assert err == f"error: unknown transform id {tid!r}\n"


def test_sample_deterministic(capsys):
    code, out1, _ = run(capsys, "--format", "structured",
                        "sample", "--seed", "3")
    assert code == 0
    _, out2, _ = run(capsys, "--format", "structured",
                     "sample", "--seed", "3")
    assert out1 == out2
    block = parse_structured(out1)[0]
    assert block["seed"] == "3"
    assert float(block["max_relation_residual"]) < 1e-12


@pytest.mark.parametrize("param", ["zzz=1", "u1=2", "fa=1"])
def test_sample_pins_only_parameters(capsys, param):
    # --param binds the context, as verify's does: a name that is not a
    # parameter is an error, not a point drawn with nothing pinned
    code, out, err = run(capsys, "sample", "--param", param)
    name = param.partition("=")[0]
    assert code == 2 and out == ""
    assert err.strip() == f"error: {name!r} is not a bindable parameter"


def test_verify_all_round_trips_field_for_field(capsys, catalog):
    code, out, _ = run(capsys, "--format", "structured",
                       "verify-all", "--samples", "3", "--seed", "4",
                       "--jobs", "1")
    assert code == 0
    blocks = parse_structured(out)
    reports = verify.verify_all(catalog, samples=3, seed=4, jobs=1)
    assert len(blocks) == len(reports) == 12
    for block, report in zip(blocks, reports):
        lines = dict(line.partition(" = ")[::2]
                     for line in report.structured_lines())
        assert block == lines


def test_verify_all_text_summary(capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert out.rstrip().endswith("12/12 pairings verified")


def test_verify_all_sampling_agrees_with_symbolic(capsys):
    _, out0, _ = run(capsys, "--format", "structured", "verify-all",
                     "--samples", "0", "--jobs", "1")
    _, out25, _ = run(capsys, "--format", "structured", "verify-all",
                      "--samples", "25", "--seed", "1", "--jobs", "2")
    v0 = {b["pair"]: b["residual_is_zero"] for b in parse_structured(out0)}
    v25 = {b["pair"]: b["residual_is_zero"] for b in parse_structured(out25)}
    assert v0 == v25
    assert all(float(b["numeric_max_residual"]) < float(b["tolerance"])
               for b in parse_structured(out25))


def test_byte_identical_runs(capsys):
    args = ("--format", "structured", "verify-all",
            "--samples", "5", "--seed", "7", "--jobs", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_environment_catalog_path(capsys, tmp_path, monkeypatch):
    (tmp_path / "extra.txt").write_text(textwrap.dedent("""\
        id: envdemo
        role: hyperbolic
        params:
        provenance: demo
        expr:
        exp(u) + u1*v1
        """))
    monkeypatch.setenv(cli.ENV_CATALOG, str(tmp_path))
    code, out, _ = run(capsys, "--format", "structured", "show", "envdemo")
    assert code == 0
    assert parse_structured(out)[0]["id"] == "envdemo"
    monkeypatch.delenv(cli.ENV_CATALOG)
    code, _, _ = run(capsys, "show", "envdemo")
    assert code == 2


def test_catalog_flag_equivalent_to_env(capsys, tmp_path):
    (tmp_path / "extra.txt").write_text(
        "id: flagdemo\nrole: evolution\nparams:\nprovenance: demo\n"
        "expr:\nu1*u4 + u2\n")
    code, out, _ = run(capsys, "--catalog", str(tmp_path),
                       "--format", "structured", "show", "flagdemo")
    assert code == 0
    assert parse_structured(out)[0]["id"] == "flagdemo"


def test_catalog_entry_out_of_scope_is_data_error(capsys, tmp_path):
    (tmp_path / "extra.txt").write_text(
        "id: baddemo\nrole: evolution\nparams:\nprovenance: demo\n"
        "expr:\nu4*u2*fa(uy)\n")
    code, out, err = run(capsys, "--catalog", str(tmp_path), "list")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "outside" in err


def test_catalog_entry_that_does_not_parse_names_its_file(capsys, tmp_path):
    (tmp_path / "unparsed.txt").write_text(
        "id: baddemo\nrole: evolution\nparams:\nprovenance: demo\n"
        "expr:\nu4*u2 +\n")
    code, out, err = run(capsys, "--catalog", str(tmp_path), "list")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unparsed.txt" in err


def test_catalog_entry_that_divides_by_zero_names_its_file(capsys, tmp_path):
    (tmp_path / "zero.txt").write_text(
        "id: zerodemo\nrole: evolution\nparams:\nprovenance: demo\n"
        "expr:\nu4*u2/0\n")
    code, out, err = run(capsys, "--catalog", str(tmp_path), "list")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero.txt" in err
    assert "constant zero denominator" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, captured", [
    pytest.param(["verify", "S1", "ev12"], 1, "verify_S1_ev12", id="S1-ev12"),
    pytest.param(["verify", "S4", "ev17"], 1, "verify_S4_ev17", id="S4-ev17"),
    pytest.param(["verify", "S1", "ev19"], 1, "verify_S1_ev19", id="S1-ev19"),
    pytest.param(["verify", "hyp4", "ev10"], 1, "verify_hyp4_ev10",
                 id="hyp4-ev10"),
    pytest.param(["verify", "hyp4", "ev12", "--samples", "5"], 0,
                 "verify_hyp4_ev12_samples5", id="hyp4-ev12-samples5"),
    pytest.param(["verify-all", "--samples", "3", "--seed", "4", "--jobs", "1"],
                 0, "verify_all_samples3_seed4", id="verify-all-samples3-seed4"),
    pytest.param(["sample", "--seed", "3"], 0, "sample_seed3",
                 id="sample-seed3"),
    pytest.param(["sample", "--seed", "3", "--param", "c=3", "--param", "a=2"],
                 0, "sample_seed3_c3_a2", id="sample-seed3-c3-a2"),
    pytest.param(["transform"], 0, "transform_all", id="transform-all"),
])
def test_verify_nonzero_structured_output_is_pinned(argv, code, captured):
    """A report, run cold in its own process, matches the captured text byte
    for byte.  For nonzero verdicts, cancellation, localization into jet
    coefficients and the cleared denominator all show in it; hyp4 ev10 puts
    exp(u) and parameters into the coefficients, apart from the jet
    monomials.  The sampled verdicts pin the repr of numeric_max_residual,
    of hyp4 ev12 and of all 12 claims, and the two sample points pin every
    drawn value: the bands and closed forms read from the symbol
    definitions, and, with c pinned, the Weierstrass branch."""
    proc = run_cold("--format", "structured", *argv)
    assert proc.returncode == code, proc.stderr
    expected = (DATA / f"{captured}.structured").read_text()
    assert proc.stdout == expected


@pytest.mark.parametrize("argv, digest", [
    pytest.param(["verify-all", "--jobs", "1", "--samples", "0"],
                 "a1c99bd21ae0c19b", id="verify-all-samples0"),
    pytest.param(["verify-all", "--jobs", "1", "--samples", "10"],
                 "ade4213251a119a8", id="verify-all-samples10"),
    pytest.param(["verify-all", "--jobs", "2", "--samples", "10"],
                 "ade4213251a119a8", id="verify-all-jobs2-samples10"),
    pytest.param(["verify-all", "--jobs", "1", "--samples", "25", "--seed", "7"],
                 "b5f5b0b9a97bd4b3", id="verify-all-samples25-seed7"),
])
def test_structured_output_digests_are_pinned(argv, digest):
    """The structured output of the shipped claims, run cold in its own
    process, has its pinned digest: the first 16 hex digits of the sha256
    of stdout, as `hypersym --format structured ... | sha256sum` prints
    them.  Two workers print what one does, as each draws its own sample
    points.  The transforms' output is compared byte for byte with
    tests/data/transform_all.structured, whose digest is 08e1fe2c9ff8daa4."""
    proc = run_cold("--format", "structured", *argv)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == digest


def test_report_does_not_depend_on_process_history(catalog):
    """The cleared denominator's factors print in an order of their own,
    not in the order they were first met: a report made after verify-all
    has interned the catalog's factors matches a cold one byte for byte.
    S1 ev19 also matches its pinned text, whose (u1^3 - 1)^5 the
    square-free factor base makes one factor whatever was interned
    earlier."""
    verify.verify_all(catalog, jobs=1)
    r = verify.verify_pair(catalog.get("S4"), catalog.get("ev17"))
    proc = run_cold("--format", "structured", "verify", "S4", "ev17")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "\n".join(r.structured_lines()) + "\n"
    r = verify.verify_pair(catalog.get("S1"), catalog.get("ev19"))
    assert r.structured_lines() == (
        DATA / "verify_S1_ev19.structured").read_text().splitlines()


def test_text_report_says_when_coefficients_are_cut(capsys):
    code, out, _ = run(capsys, "verify", "S1", "ev12")
    assert code == 1
    assert out.count("  coefficient of ") == verify.MAX_REPORTED_COEFFS
    assert "  (64 of 116 failing coefficients shown)\n" in out
    code, out, _ = run(capsys, "verify", "hyp3", "ev12")
    assert out.count("  coefficient of ") == 5
    assert "failing coefficients shown" not in out

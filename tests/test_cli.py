"""Tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mcgorbits import checks, euler
from mcgorbits.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_even_case(capsys):
    code, out, _ = run(capsys, "classify", "--g", "2", "--n", "2",
                       "--element", "0,0,0,1")
    assert code == 0
    assert "parity class         1" in out
    assert "vanishing number     1" in out


def test_classify_odd_case_json(capsys):
    code, out, _ = run(capsys, "classify", "--g", "4", "--n", "3",
                       "--element", "1,2,0,1,2,2,0,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["parity_class"] == 0
    assert data["canonical_representative"] == [0] * 8
    assert data["vanishing_number"] is None


def test_classify_refuses_bad_euler(capsys):
    code, _, err = run(capsys, "classify", "--g", "2", "--n", "3",
                       "--element", "0,0,0,0")
    assert code == 2
    assert "--allow-invalid-euler" in err


def test_classify_allows_override(capsys):
    code, out, _ = run(capsys, "classify", "--g", "2", "--n", "3",
                       "--element", "0,0,0,0", "--allow-invalid-euler",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["regime"] == "outside n | 2g-2 regime"


def test_classify_bad_element(capsys):
    code, _, err = run(capsys, "classify", "--g", "2", "--n", "2",
                       "--element", "0,0,0")
    assert code == 2
    assert "coordinates" in err or "expected" in err


def test_orbits_json_schema(capsys):
    code, out, _ = run(capsys, "orbits", "--g", "2", "--n", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"g", "n", "generators", "orbit_count", "orbits",
                         "elapsed_ms", "threads"}
    assert data["orbit_count"] == 2
    assert sorted(o["size"] for o in data["orbits"]) == [6, 10]


def test_orbits_csv(capsys):
    code, out, _ = run(capsys, "orbits", "--g", "2", "--n", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "representative,size,vanishing_number"
    assert len(lines) == 3


def test_orbits_budget_refusal(capsys, monkeypatch):
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", "1")
    code, _, err = run(capsys, "orbits", "--g", "2", "--n", "2")
    assert code == 2
    assert "bytes" in err


def test_orbits_frontier_over_budget_is_a_clean_error(capsys, monkeypatch):
    # (2, 4): 23072 fixed bytes, and a frontier that peaks at 172 bytes
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", "23100")
    code, out, err = run(capsys, "orbits", "--g", "2", "--n", "4",
                         "--allow-invalid-euler")
    assert code == 2 and out == ""
    assert err.startswith("error: visited bitmap needs 32 bytes")
    assert "bytes of frontier" in err and "Traceback" not in err


def test_malformed_budget_is_a_clean_error(capsys, monkeypatch):
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", "abc")
    for argv in (("orbits", "--g", "2", "--n", "2"),
                 ("verify", "--suite", "theorem", "--max-states", "100")):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == ("error: MCGORBITS_BITMAP_BUDGET must be a non-negative "
                       "integer byte count, got 'abc'\n")


@pytest.mark.parametrize("value", ["0", "-2", "two"])
@pytest.mark.parametrize("command", [("orbits", "--g", "2", "--n", "2")])
def test_bad_thread_count_is_a_usage_error(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--threads", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        f"error: argument --threads: must be a positive integer, got {value!r}")


@pytest.mark.parametrize("argv, flag, message", [
    (("cocycle", "--genus", "1"), "--genus", "must be an integer >= 2, got '1'"),
    (("verify", "--suite", "cocycle", "--genus", "1"), "--genus",
     "must be an integer >= 2, got '1'"),
    (("cocycle", "--max-len", "0"), "--max-len", "must be a positive integer, got '0'"),
    (("cocycle", "--pairs", "-1"), "--pairs", "must be a positive integer, got '-1'"),
    (("verify", "--suite", "sl2", "--n", "0"), "--n",
     "must be a positive integer, got '0'"),
    (("verify", "--suite", "cocycle", "--samples", "0"), "--samples",
     "must be a positive integer, got '0'"),
    (("verify", "--suite", "theorem", "--max-states", "-5"), "--max-states",
     "must be a positive number, got '-5'"),
    (("verify", "--suite", "theorem", "--max-states", "nan"), "--max-states",
     "must be a positive number, got 'nan'"),
])
def test_bad_numeric_argument_is_a_usage_error(capsys, argv, flag, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"error: argument {flag}: {message}")


def test_verify_fails_when_no_check_ran(capsys):
    code, out, err = run(capsys, "verify", "--suite", "theorem",
                         "--max-states", "0.5")
    assert code == 1
    assert out.splitlines()[-1] == "0/0 checks passed"
    assert "no check ran" in err


def test_verify_sl2_modulus_above_cap_is_a_clean_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "sl2", "--n", "101")
    assert code == 2
    assert err == "error: sl2 n=101: n^4 = 104060401 exceeds cap 100000000\n"


def test_verify_sl2_single_modulus_one(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sl2", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["ok   sl2 n=1 closure size: 1", "1/1 checks passed"]


def test_apply_word(capsys):
    code, out, _ = run(capsys, "apply", "--g", "2", "--n", "2",
                       "--element", "0,0,0,0", "--word", "C1")
    assert code == 0
    assert out.strip() == "0,1,0,1"


def test_apply_bad_word(capsys):
    code, _, err = run(capsys, "apply", "--g", "2", "--n", "2",
                       "--element", "0,0,0,0", "--word", "C0")
    assert code == 2
    assert "C0" in err


def test_normalize_certificate(capsys):
    code, out, _ = run(capsys, "normalize", "--g", "2", "--n", "2",
                       "--element", "1,1,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["canonical_representative"] == [0, 0, 0, 0]
    # the certificate replays
    from mcgorbits.action import apply_word, parse_word
    from mcgorbits.space import SpaceParams, make_element
    p = SpaceParams(2, 2)
    x = make_element(p, [1, 1, 1, 1])
    assert apply_word(parse_word(data["certificate"]), x).coords == (0, 0, 0, 0)


@pytest.mark.parametrize("command", ["classify", "normalize"])
def test_tampered_certificate_is_a_clean_error(capsys, monkeypatch, command):
    # a normalizer whose certificate does not replay, and which, like the
    # real one, raises AssertionError when asked to verify it: the CLI
    # replays each certificate it prints, once, and reports a failed
    # replay as an error line, not a traceback
    from mcgorbits import cli
    from mcgorbits.action import Generator, GeneratorWord
    from mcgorbits.normalize import Certificate

    real = cli.normalize
    extra = GeneratorWord((Generator("C", 1),))

    def normalize(x, verify=True):
        form, cert = real(x, verify=False)
        cert = Certificate(cert.word.then(extra), cert.source, cert.target)
        if verify and not cert.replays():
            raise AssertionError(f"certificate for {x} does not replay")
        return form, cert

    monkeypatch.setattr(cli, "normalize", normalize)
    code, out, err = run(capsys, command, "--g", "2", "--n", "2",
                         "--element", "1,1,1,1")
    assert code == 2 and out == ""
    assert err == "error: internal error: certificate failed replay\n"


def test_verify_sl2(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sl2", "--n", "6")
    assert code == 0
    assert "ok   sl2 n=6 closure size: 144" in out


def test_verify_theorem_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem",
                       "--max-states", "5000")
    assert code == 0
    assert "theorem g=2 n=2 orbit_count: 2" in out
    assert "checks passed" in out


def test_verify_cocycle(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cocycle",
                       "--samples", "40")
    assert code == 0
    assert "cocycle c(a1, (a'2)^-1): 1" in out


def test_cocycle_sampling_deterministic(capsys):
    code1, out1, _ = run(capsys, "cocycle", "--genus", "2", "--pairs", "10",
                         "--seed", "7")
    code2, out2, _ = run(capsys, "cocycle", "--genus", "2", "--pairs", "10",
                         "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["seed"] == 7
    assert len(data["samples"]) == 10
    for sample in data["samples"]:
        assert sample["c"] in (-1, 0, 1)
        assert sample["residual"] < 1e-6


def test_out_of_range_cocycle_fails_verify(capsys, monkeypatch):
    # a cocycle reading 2 where it read 0 is a wrong value, not an
    # ill-conditioned sample: the range check must see it
    group = euler.standard_group(2)
    real = euler.lift_cocycle

    def lift_cocycle(m1, m2):
        value, residual = real(m1, m2)
        return (2 if value == 0 else value), residual

    monkeypatch.setattr(euler, "standard_group", lambda genus: group)
    monkeypatch.setattr(euler, "lift_cocycle", lift_cocycle)
    code, out, _ = run(capsys, "verify", "--suite", "cocycle",
                       "--samples", "50")
    assert code == 1
    line = next(text for text in out.splitlines()
                if "samples out of range" in text)
    assert line.startswith("FAIL cocycle 50 samples out of range: expected 0, got ")
    assert int(line.rsplit(" ", 1)[1]) > 0


def _always_ill_conditioned(monkeypatch):
    """Make every sampled pair ill-conditioned; named words still evaluate."""
    real = euler.cocycle

    def cocycle(group, w1, w2):
        if isinstance(w1, str):
            return real(group, w1, w2)
        raise euler.IllConditionedError("forced by the test")

    monkeypatch.setattr(euler, "cocycle", cocycle)


def test_cocycle_sampling_is_capped(capsys, monkeypatch):
    _always_ill_conditioned(monkeypatch)
    code, out, err = run(capsys, "cocycle", "--pairs", "5")
    assert code == 2 and out == ""
    assert "cocycle sampling stopped after 100 attempts: 100 rejected" in err
    assert "0 of 5 samples accepted" in err


def test_verify_cocycle_sampling_is_capped(capsys, monkeypatch):
    _always_ill_conditioned(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", "cocycle", "--samples", "5")
    assert code == 1
    assert ("FAIL cocycle sampling stopped after 100 attempts: "
            "100 rejected as ill-conditioned, 0 of 5 samples accepted") in out


@pytest.mark.parametrize("command", [("cocycle",), ("verify", "--suite", "cocycle")])
def test_unrealizable_genus_is_a_clean_error(capsys, command):
    # the genus-45 relator residual (about 1.04e-6) exceeds the 1e-6 tolerance
    code, out, err = run(capsys, *command, "--genus", "45")
    assert code == 2 and out == ""
    assert err.startswith("error: genus 45 cannot be realized: relator residual ")
    assert err.endswith(" exceeds tolerance 1e-06\n")
    assert err.count("\n") == 1


# sha256 of stdout, recorded before the lifts and the vanishing numbers
# were cached; the genus-3 run was recorded once a product whose
# determinant rounds to <= 0 counted as ill-conditioned (it crashed before)
VERIFY_ALL_SHA256 = \
    "dfd441d38da140e4ff2d53092e76f47bccee029d2a330d53f6f9926381c8b3d9"
COCYCLE_SHA256 = {
    2: "c757a2ef02940338f68ef249ca86f27eeee7796e4f668d18994a8af1fbf3180d",
    3: "0d2669c5f7cad90a8e4ab560392cad494fffc57a21bdc68082baa0a1e4888773",
}


@pytest.mark.parametrize("seed", ["1", "91", "20250810"])
def test_verify_all_output_is_unchanged(capsys, seed):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", seed)
    assert code == 0
    assert out.splitlines()[-1] == "62/62 checks passed"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


@pytest.mark.parametrize("genus", [2, 3])
def test_cocycle_json_is_unchanged(capsys, genus):
    code, out, _ = run(capsys, "cocycle", "--genus", str(genus),
                       "--pairs", "50", "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COCYCLE_SHA256[genus]


# sha256 of stdout inside the regime, with the orbits JSON's elapsed_ms
# line dropped: (argv, digest)
COMMAND_SHA256 = {
    "classify-text": (
        ("classify", "--g", "2", "--n", "2", "--element", "1,1,1,1"),
        "c18bb351a62d61eafa6d5d25d19770e5a731a2aad6d2c1830b13b76d9516b92a"),
    "classify-json": (
        ("classify", "--g", "3", "--n", "4", "--element", "1,2,3,0,1,1",
         "--format", "json"),
        "4d7b48f9ef6db536ed8608074fafa152f1aa66c109993855ecd07307f1369c3a"),
    "classify-odd-text": (
        ("classify", "--g", "4", "--n", "3", "--element", "1,2,0,1,2,2,0,1"),
        "5a93cc66c34e523f6ce078a2dccbe6d933bdb07e629e46ca3fa272cf61a6803e"),
    "normalize-text": (
        ("normalize", "--g", "3", "--n", "4", "--element", "1,2,3,0,1,1"),
        "37711367944451b16f349adcde0a64c73752d95a752159e63a99bbba9e61c689"),
    "normalize-json": (
        ("normalize", "--g", "4", "--n", "3", "--element", "1,2,0,1,2,2,0,1",
         "--format", "json"),
        "841b8d771ed3dcce8af18a1ad9ca68ce50f20d8181cd43acd12ecf518336e02f"),
    "apply-text": (
        ("apply", "--g", "3", "--n", "4", "--element", "1,2,3,0,1,1",
         "--word", "A1 B2^-1 C1^3 s"),
        "82948ce28fa76742e85111db6c563019b426a87cdfde3d9a756d1812ae4b448d"),
    "apply-json": (
        ("apply", "--g", "2", "--n", "2", "--element", "0,0,0,0",
         "--word", "C1", "--format", "json"),
        "f6efdbb32d2c987f21de88ab99f4106f1acd0dcdbebd05c28c3e7088568563d2"),
    "orbits-json": (
        ("orbits", "--g", "3", "--n", "2", "--gens", "mod_pm", "--format", "json"),
        "a40ce851ca74ad42ecd817ef8c186e9d4207d7e816c4c368cc6f66af995c2f98"),
    "orbits-csv": (
        ("orbits", "--g", "4", "--n", "3", "--format", "csv"),
        "7a6bff53ce4e4947634f7b29b661a36066b60b03389bb06b6899a948bed51a25"),
}


@pytest.mark.parametrize("case", sorted(COMMAND_SHA256))
def test_command_output_is_unchanged(capsys, case):
    # inside the regime nothing goes to stderr, the watermark included
    argv, digest = COMMAND_SHA256[case]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith('  "elapsed_ms": '))
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


def test_verify_cocycle_rejects_products_lost_to_rounding(capsys):
    # long genus-4 words have entries so large that a product's
    # determinant rounds to 0: that sample is ill-conditioned, not a crash
    code, out, _ = run(capsys, "verify", "--suite", "cocycle", "--genus", "4")
    assert code == 0
    assert out.splitlines()[-1] == "4/4 checks passed"


def test_corrupted_vanishing_value_fails_the_invariants_suite(capsys, monkeypatch):
    real = checks.vanishing_number_array
    # one state of (g=3, n=4), inside a multi-state hook batch for both
    # generator sets; no state of (g=3, n=2) has a coordinate 2
    corrupted = np.array([0, 2, 0, 0, 0, 0])

    def vanishing_number_array(coords):
        values = real(coords)
        if coords.shape[1] == corrupted.size:
            values ^= (coords == corrupted).all(axis=1)
        return values

    monkeypatch.setattr(checks, "vanishing_number_array", vanishing_number_array)
    code, out, _ = run(capsys, "verify", "--suite", "invariants")
    assert code == 1
    lines = out.splitlines()
    for selector in ("mod", "mod_pm"):
        assert (f"FAIL invariants g=3 n=4 {selector} vanishing constant "
                "per orbit ") in lines
    assert "ok   invariants g=3 n=2 mod vanishing constant per orbit" in lines
    assert lines[-1] == f"{len(lines) - 3}/{len(lines) - 1} checks passed"


def test_verify_runs_one_census_per_space_and_generator_set(capsys, monkeypatch):
    # --suite all: the theorem suite's mod census of an even space also
    # gathers the vanishing bounds the invariants suite reads; --suite
    # invariants alone runs both of its censuses itself
    real = checks.enumerate_orbits
    calls = []

    def enumerate_orbits(params, gens, *args, **kwargs):
        calls.append((params.g, params.n, gens))
        return real(params, gens, *args, **kwargs)

    monkeypatch.setattr(checks, "enumerate_orbits", enumerate_orbits)
    theorem = list(checks.theorem_cases(1e6))
    even = list(checks.invariant_cases(1e6))
    assert (len(theorem), len(even)) == (14, 7)
    for suite, count, expected in (
            ("all", 21, [(g, n, "mod") for g, n in theorem]
                        + [(g, n, "mod_pm") for g, n in even]),
            ("invariants", 14, [(g, n, gens) for g, n in even
                                for gens in ("mod", "mod_pm")])):
        calls.clear()
        code, _, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert len(calls) == count, suite
        assert calls == expected, suite


def test_closed_pipe_is_not_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "mcgorbits.cli", "verify", "--suite", "all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert first.startswith(b"ok   theorem")
    assert "Traceback" not in err and "Exception ignored" not in err
    assert code == 1


# states, words, the normalizer and the commands built on them run
# without numpy; the census loads it on first use
NUMPY_ON_FIRST_USE = """
import importlib, sys
import mcgorbits, mcgorbits.cli
from mcgorbits import SpaceParams, apply_word, make_element, normalize, same_orbit
for name in ("space", "action", "orbits", "normalize", "sl2", "invariants",
             "euler", "checks", "cli"):
    importlib.import_module("mcgorbits." + name)
p = SpaceParams(3, 4)
x = make_element(p, [0, 2, 0, 3, 0, 1])
form, cert = normalize(x)
assert cert.replays() and apply_word(cert.word, x) == form.representative
assert same_orbit(x, make_element(p, [1, 1, 0, 0, 0, 1]))[0]
main = mcgorbits.cli.main
assert main(["normalize", "--g", "3", "--n", "4", "--element", "0,2,0,3,0,1"]) == 0
assert main(["apply", "--g", "2", "--n", "2", "--element", "0,1,0,1",
             "--word", "A1 C1^3"]) == 0
assert main(["classify", "--g", "4", "--n", "3",
             "--element", "1,2,0,1,2,2,0,1"]) == 0
assert main(["verify", "--suite", "sl2"]) == 0
print("numpy before the census:", "numpy" in sys.modules)
assert main(["orbits", "--g", "3", "--n", "2"]) == 0
print("numpy after the census:", "numpy" in sys.modules)
"""


def test_numpy_loads_only_for_the_census():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ON_FIRST_USE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "numpy before the census: False" in lines
    assert lines[-1] == "numpy after the census: True"


# outside the regime, formats with no place for the watermark keep their
# stdout and watermark on stderr: (argv, stdout)
OUTSIDE_REGIME = {
    "normalize-text": (
        ("normalize", "--element", "1,2,0,1"),
        "canonical     0,0,0,0\ncertificate   A1 B1^-1 B2 A2 C1^-1 A2 B2^-1 C1\n"),
    "apply-text": (
        ("apply", "--element", "1,2,0,1", "--word", "A1"), "1,1,0,1\n"),
    "apply-json": (
        ("apply", "--element", "1,2,0,1", "--word", "A1", "--format", "json"),
        '{"element": [1, 2, 0, 1], "word": "A1", "image": [1, 1, 0, 1]}\n'),
    "orbits-csv": (
        ("orbits", "--format", "csv"),
        'representative,size,vanishing_number\n"0,0,0,0",81,\n'),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_REGIME))
def test_outside_regime_is_watermarked_on_stderr(capsys, case):
    argv, stdout = OUTSIDE_REGIME[case]
    code, out, err = run(capsys, argv[0], "--g", "2", "--n", "3",
                         "--allow-invalid-euler", *argv[1:])
    assert code == 0 and out == stdout
    assert err == "warning: outside n | 2g-2 regime\n"

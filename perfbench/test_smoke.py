"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the gates trip on a tampered certificate and on an overrun, and
that the benchmark refuses to report without the library's sources.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

import run
import spans
from workloads import Tally, build_inputs, census_unit, certify_unit

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "census": {"kind": "census", "spaces": [[2, 2], [3, 2]], "threads": 2},
    "certify": {"kind": "certify", "exhaustive": [[2, 2], [3, 1]],
                "random": [[3, 4, 20]]},
    "certify_large_n": {"kind": "certify_large_n", "random": [[3, 4, 100]]},
    "verify": {"kind": "verify", "argv": ["verify", "--suite", "sl2", "--n", "2"]},
}


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace):
    result, lines = run.run_workload(name, TINY[name], seed=3, seconds=0.1,
                                     trace=trace, probes=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    text = "\n".join(lines)
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line
                   for line in lines), text


def test_per_layer_names_match_the_tracer():
    assert [m["name"] for m in BENCH["per_layer"]] == [n for n, _, _ in spans.PER_LAYER]


def test_replay_gate_trips_on_a_tampered_certificate(lib, monkeypatch):
    honest = lib.normalize.normalize
    extra = lib.action.GeneratorWord((lib.action.Generator("C", 1),))

    def tampered(x, verify=True):
        form, cert = honest(x, verify=False)
        return form, lib.normalize.Certificate(cert.word.then(extra), x, cert.target)

    monkeypatch.setattr(lib.normalize, "normalize", tampered)
    tally = Tally()
    spec = TINY["certify"]
    certify_unit(lib, spec, build_inputs(lib, spec, 3), tally, cap=30)
    # every state of (2,2) and of (3,4); at n = 1 the extra twist acts trivially
    assert tally.failed >= 2 ** 4 + 20
    assert "replays to" in tally.errors[0]


def test_an_exception_counts_as_a_failed_operation(lib, monkeypatch):
    def broken(x, verify=True):
        raise ArithmeticError("broken normalizer")

    monkeypatch.setattr(lib.normalize, "normalize", broken)
    tally = Tally()
    spec = TINY["certify"]
    certify_unit(lib, spec, build_inputs(lib, spec, 3), tally, cap=30)
    assert tally.failed >= 2 ** 4 + 1 + 20
    assert "broken normalizer" in tally.errors[0]


def test_an_overrun_counts_as_a_failed_operation(lib):
    tally = Tally()
    spec = {"kind": "census", "spaces": [[5, 2], [4, 3]], "threads": 1}
    census_unit(lib, spec, build_inputs(lib, spec, 0), tally, cap=1e-4)
    assert tally.failed >= 1 and "cap" in tally.errors[0]


def test_refuses_to_report_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "census", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import paulipriv as pp  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def args(workload, seconds=0.0):
    return argparse.Namespace(workload=workload, seed=5, seconds=seconds, trace=0)


@pytest.fixture
def tiny_extend(monkeypatch):
    # one qubit case, one qutrit case and one composite case above the scan limit
    monkeypatch.setattr(workloads.ExtendSubgroups, "SPECS",
                        ((2, 3, (1,)), (3, 2, (1,)), (4, 4, (1,))))
    wl = workloads.ExtendSubgroups()
    return wl, wl.rounds(5)


@pytest.fixture
def cli(tmp_path):
    return workloads.CliRoundtrip(tmp_path, run.child_env(), inprocess=True)


def names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_end_to_end_metrics_match_the_spec(tiny_extend):
    metrics, detail, outcomes = run.end_to_end(args("extend_subgroups"), *tiny_extend)
    assert {k: v["unit"] for k, v in metrics.items()} == names_units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
    assert detail["latency_tail"]["samples"] == sum(o.passed for o in outcomes)


def test_per_layer_metrics_match_the_spec_and_keep_verdicts(tiny_extend):
    metrics, detail, outcomes = run.per_layer(args("extend_subgroups"), *tiny_extend)
    assert {k: v["unit"] for k, v in metrics.items()} == names_units(SPEC["per_layer"])
    assert detail["verdicts_identical"]
    assert metrics["groups.annihilator.calls"]["value"] > 0
    assert metrics["groups.errors"]["value"] == 1  # the composite case, counted once
    assert 0.9 < metrics["trace.accounted_share"]["value"] <= 1.0
    assert {row["d"] for row in detail["rows"]} == {2, 3, 4}


def test_refusal_is_a_failure_but_not_a_wrong_answer(tiny_extend):
    wl, rounds = tiny_extend
    out = [workloads.run_case(wl, case) for case in rounds[0]]
    assert [o.passed for o in out] == [True, True, False]
    assert not out[2].wrong and math.isinf(out[2].latency)


def test_crash_is_a_failure_but_not_a_wrong_answer(tiny_extend, monkeypatch):
    wl, rounds = tiny_extend

    def crash(K):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(pp, "annihilator", crash)
    out = workloads.run_case(wl, rounds[0][0])
    assert not out.passed and not out.wrong
    assert out.error == "LinAlgError: SVD did not converge"


def test_wrong_extension_is_counted_as_wrong(tiny_extend, monkeypatch):
    wl, rounds = tiny_extend
    monkeypatch.setattr(pp, "extend_to_maximal", lambda K: K)
    out = workloads.run_case(wl, rounds[0][0])
    assert not out.passed and out.wrong


def test_wrong_block_structure_is_counted_as_wrong(monkeypatch):
    wl = workloads.CertifyPipeline()
    case = wl.warmup(5)
    assert workloads.run_case(wl, case).passed
    real = pp.structure_type
    monkeypatch.setattr(
        pp, "structure_type",
        lambda A: (pp.StructureType(((A.N, 1),)), real(A)[1]),
    )
    out = workloads.run_case(wl, case)
    assert not out.passed and out.wrong


@pytest.mark.parametrize("perturb", [False, True])
def test_cli_qutrit_demo(cli, perturb):
    argv = ["demo", "qutrit", "--no-timestamp"] + (["--perturb"] if perturb else [])
    out = workloads.run_case(cli, workloads.Case("qutrit", (), {"steps": [argv]}))
    assert out.passed is not perturb
    assert out.wrong is perturb  # exit 1 where 0 is correct


def test_cli_ops_pass_and_composite_extend_is_refused(cli):
    rng = np.random.default_rng(5)
    cases = [cli._certify(rng, 2), cli._quasiorth(rng, 2), cli._condexp_apply(rng, 2, "t"),
             cli._extend(2, workloads.isotropic_rows(rng, 2, 3, (1,)))]
    assert all(workloads.run_case(cli, c).passed for c in cases)
    out = workloads.run_case(cli, cli._extend(4, np.array([[0, 0, 0, 0, 1, 0, 0, 0]])))
    assert not out.passed and not out.wrong and "exit 3" in out.error


def test_dense_ops_pass_at_small_sizes(monkeypatch):
    monkeypatch.setattr(workloads.DenseAlgebras, "SPECS",
                        (("planted", ((2, 2), (1, 1))), ("planted", ((2, 3),)), ("fourier", 5)))
    wl = workloads.DenseAlgebras()
    out = [workloads.run_case(wl, c) for c in wl.rounds(5)[0]]
    assert all(o.passed for o in out), [o.error for o in out]
    assert [o.verdict[2] for o in out] == [False, True, True]


def test_inputs_follow_the_seed():
    wl = workloads.ExtendSubgroups()
    a, b, c = wl.rounds(5), wl.rounds(5), wl.rounds(6)
    rows = lambda rs: [case.data["rows"].tolist() for case in rs[0]]  # noqa: E731
    assert rows(a) == rows(b) != rows(c)


@pytest.mark.parametrize("d,n,scales", [(2, 3, (1, 1)), (3, 2, (1,)), (4, 2, (2, 1)), (6, 2, (3,))])
def test_generated_seeds_commute_with_the_stated_order(d, n, scales):
    rows = workloads.isotropic_rows(np.random.default_rng(0), d, n, scales)
    assert not workloads.symplectic_form(rows, rows, d).any()
    assert len(workloads.span_rows(rows, d)) == workloads.subgroup_order(d, scales)
    assert len(pp.close(workloads.to_classes(rows, d))) == workloads.subgroup_order(d, scales)
    strings = [workloads.pauli_string(r, d) for r in rows]
    assert [workloads.parse_row(s, d) for s in strings] == [tuple(r) for r in rows]


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    with t.span("bench", "op"):
        with t.span("groups", "close"):
            with t.span("pauli", "to_dense"):
                pass
    agg = tracing.aggregate(t.spans)
    total = sum(f["self_s"] for f in agg["fn"].values())
    assert total == pytest.approx(agg["root_s"])
    assert agg["fn"]["groups.close"]["self_s"] <= agg["fn"]["groups.close"]["total_s"]


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail(list(range(40)))
    assert (value, n) == (29, 40) and pct == 75.0
    assert sum(x > value for x in range(40)) == 10


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "certify_pipeline",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert p.returncode != 0 and p.stdout == ""

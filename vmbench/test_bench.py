"""Tests of the benchmark itself: smoke runs, metric names and units, and
correctness checks that fail on corrupted outputs.

Run from the repository root with ``python -m pytest vmbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


@pytest.fixture(scope="module")
def vp():
    return run.load_vmprox()


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "vmbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--iters", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and
                   line.split()[-1] == metric["unit"] for line in lines[:-1])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "vmbench", tmp_path / "vmbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "compression_32", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def small_solve(vp, iters=20):
    shape = (16, 16)
    H = vp.ConvOperator2D(vp.gaussian_psf(7, 1.0), shape)
    truth = vp.cartoon_image(shape)
    observed = np.clip(vp.degrade_synthetic(truth, H, "cauchy", seed=5), 0.0, 1.0)
    problem = vp.CauchyDeblurProblem(H, observed, shape)
    config = vp.SolverConfig(max_outer_iters=iters, stop_tol=0.0)
    result = vp.minimize(problem, config, np.maximum(observed, 1e-3),
                         metric="sg", steplength="ritz")
    return run.Solve(1.0, problem, config, result, truth, observed)


def test_clean_solve_passes(vp):
    solve = small_solve(vp)
    solve.evaluate(vp, 20, {"final_f": (solve.records[-1].f_next, 1e-9)}, None)
    assert solve.failures == []


def test_check_fails_on_trace_row_with_positive_h_gamma(vp):
    solve = small_solve(vp)
    records = list(solve.records)
    records[7] = dataclasses.replace(records[7], h_gamma=1e-3)
    failures = checks.solve_failures(vp, records, solve.config, 20, {})
    assert any("audit violation" in f for f in failures)


def test_check_fails_on_perturbed_reconstruction(vp):
    solve = small_solve(vp)
    _, mse = run.quality(vp, solve.problem, solve.result.x, solve.truth, solve.observed)
    solve.result.x = solve.result.x.copy()
    solve.result.x[:16] += 0.2  # brighten one row
    solve.evaluate(vp, 20, {"recon_mse": (mse, 1e-3)}, None)
    assert any("recon_mse" in f for f in solve.failures)


def test_check_fails_below_psnr_floor_and_on_short_runs(vp):
    solve = small_solve(vp)
    failures = checks.solve_failures(vp, solve.records, solve.config, 20,
                                     {"psnr_gain_db": 4.9},
                                     psnr_floor=checks.PSNR_GAIN_FLOOR_DB)
    assert any("floor" in f for f in failures)
    failures = checks.solve_failures(vp, solve.records[:-1], solve.config, 20, {})
    assert any("19 of 20" in f for f in failures)
    failures = checks.solve_failures(vp, solve.records, solve.config, 20,
                                     {"final_f": float("nan")})
    assert any("not finite" in f for f in failures)


def test_certificate_audit(vp):
    shape = (8, 8)
    reg = vp.TVNonnegRegularizer(shape, rho=0.2)
    rng = np.random.default_rng(0)
    x = rng.random(64)
    grad = rng.standard_normal(64)
    metric = vp.DiagonalMetric.identity(64, 1e10)
    tau = 1e6 - 1
    cert = vp.DualTVProx(reg, warm_start=False).solve(
        x, grad, reg.f1(x), 0.5, metric, 1.0, tau)
    assert checks.certificate_violations(cert, tau) == []
    loose = dataclasses.replace(cert, h_primal=abs(cert.psi_dual) + 1.0)
    assert any("acceptance" in m for m in checks.certificate_violations(loose, tau))
    positive = dataclasses.replace(cert, h_gamma=1e-6)
    assert any("h_gamma" in m for m in checks.certificate_violations(positive, tau))


def test_wrong_reference_fails_the_benchmark(vp, monkeypatch, capsys):
    wrong = {"final_f": (0.795973617, 1e-6), "recon_mse": (5.4e-4, 1e-3)}
    monkeypatch.setitem(run.WORKLOADS, "compression_32", lambda: run.PresetWorkload(
        "presets/compression_32.yaml", wrong, None))
    code = run.main(["--workload", "compression_32", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_tracer_restores_originals_and_counts_self_time(vp):
    originals = (vp.solver.minimize, vp.cli.minimize, vp.minimize,
                 vp.ConvOperator2D.apply, vp.DiagonalMetric.identity)
    tracer = tracing.Tracer()
    tracer.install(vp)
    try:
        assert vp.cli.minimize is vp.solver.minimize is vp.minimize
        assert vp.cli.minimize is not originals[0]
        small_solve(vp, iters=3)
    finally:
        tracer.uninstall()
    assert (vp.solver.minimize, vp.cli.minimize, vp.minimize,
            vp.ConvOperator2D.apply, vp.DiagonalMetric.identity) == originals
    names = {row[0] for row in tracer.spans}
    assert {"solver.minimize", "prox.DualTVProx.solve",
            "operators.ConvOperator2D.apply", "prox.project_dual_tv"} <= names
    roots = [row for row in tracer.spans if row[3] < 0]
    total = sum(end - start for _, start, end, _, _ in roots)
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(total, rel=1e-9)


def test_self_time_and_nested_inclusive_time():
    spans = [
        ["solver.step", 0.0, 10.0, -1, 0],
        ["strategies.Ritz.choose", 1.0, 4.0, 0, 0],
        ["strategies.BB.choose", 2.0, 3.0, 1, 0],
        ["prox.solve", 5.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.layer_self_seconds(spans) == {"solver": 3.0, "strategies": 3.0,
                                                 "prox": 4.0}
    names = {"strategies.Ritz.choose", "strategies.BB.choose"}
    assert tracing.inclusive(spans, names) == (1, 3.0)

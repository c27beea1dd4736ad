import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from vmprox import cli, diagnostics, pgm
from vmprox.config import build_problem, load_experiment
from vmprox.operators import ConvOperator2D, gaussian_psf
from vmprox.problems import (
    CauchyDeblurProblem,
    SignalDependentGaussianProblem,
    cartoon_image,
    degrade_synthetic,
)
from vmprox.prox import InexactProxError
from vmprox.solver import IterateRecord, SolverConfig, Trace, minimize

from test_solver import _edge_records

TOY_CONFIG = """\
problem:
  kind: toy1d
solver:
  beta: 0.5
  max_outer_iters: 50
  stop_tol: 0.0
seed: 0
output:
  trace: {trace}
  summary: {summary}
"""

SMALL_CAUCHY = """\
problem:
  kind: cauchy
  image: synthetic:cartoon
  size: [16, 16]
  psf_size: 9
  psf_sigma: 1.0
  gamma_noise: 0.02
  lambda_reg: 0.35
solver:
  max_outer_iters: 40
  stop_tol: 0.0
  metric: sg
  steplength: ritz
seed: 5
output:
  trace: {trace}
  reconstruction: {recon}
  summary: {summary}
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# The problem keys each kind reads besides ``kind``, and a valid value for
# every problem key, and for the start-point keys that no kind reads: the
# observation is always clipped and floored, and the other starts are fixed.
_DEBLUR_READS = {"image", "size", "psf_size", "psf_sigma", "observed"}
_KIND_READS = {
    "gaussian_sd": _DEBLUR_READS | {"a", "b", "rho"},
    "cauchy": _DEBLUR_READS | {"gamma_noise", "lambda_reg"},
    "compression": {"image", "size", "lambda_reg", "box_upper"},
    "toy1d": set(),
}
_KEY_VALUES = {
    "image": "synthetic:smooth", "size": [8, 8], "psf_size": 3,
    "psf_sigma": 1.0, "a": 1.0, "b": 1.0, "rho": 0.5, "gamma_noise": 0.02,
    "lambda_reg": 0.35, "box_upper": 1.5, "observed": "obs.pgm",
    "clip_observed": True, "x0_floor": 0.001, "x0_value": 1.0,
}
_UNREAD = [(kind, key) for kind, reads in _KIND_READS.items()
           for key in sorted(set(_KEY_VALUES) - reads)]
# Solver keys that a run never reads: the dual prox's keywords on every kind
# (a library caller sets them on ``problem.prox``), ``ritz_window`` with
# any steplength (the window is fixed) and ``max_backtracks`` (the
# linesearch stops at ``solver.LAM_MIN``).
_SOLVER_UNREAD = [
    ("cauchy", "max_backtracks: 60", "max_backtracks"),
    ("compression", "inner_limit: 7", "inner_limit"),
    ("compression", "warm_start: false", "warm_start"),
    ("toy1d", "inner_limit: 7", "inner_limit"),
    ("toy1d", "warm_start: false", "warm_start"),
    ("cauchy", "inner_limit: 7", "inner_limit"),
    ("cauchy", "warm_start: false", "warm_start"),
    ("gaussian_sd", "inner_limit: 5000", "inner_limit"),
    ("gaussian_sd", "warm_start: true", "warm_start"),
    ("cauchy", "steplength: bb\n  ritz_window: 3", "ritz_window"),
    ("compression", "ritz_window: 3", "ritz_window"),
    ("gaussian_sd", "steplength: ritz\n  ritz_window: 3", "ritz_window"),
]


def _fail_if_called(*args, **kwargs):
    raise AssertionError("called after an output directory failed")


class TestSolve:
    def test_toy1d_summary(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "toy.yaml",
            TOY_CONFIG.format(trace=tmp_path / "t.csv",
                              summary=tmp_path / "s.json"),
        )
        assert cli.main(["solve", str(cfg)]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["first_prox_point"] == 2.0
        assert abs(summary["final_x"] - 10.0) <= 1e-6
        assert summary["audit"]["ok"] is True

    def _small_cauchy(self, tmp_path):
        return _write(tmp_path, "cauchy.yaml", SMALL_CAUCHY.format(
            trace=tmp_path / "t.csv", recon=tmp_path / "r.pgm",
            summary=tmp_path / "s.json"))

    def test_every_solve_reports_its_audit(self, tmp_path, capsys):
        assert cli.main(["solve", str(self._small_cauchy(tmp_path))]) == 0
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        written = json.loads((tmp_path / "s.json").read_text())
        for summary in (printed, written):
            assert summary["audit"]["total_violations"] == 0
            assert summary["audit"]["n_iterations"] == summary["iterations"] == 40

    def test_audit_violation_exits_after_writing_outputs(self, tmp_path, capsys,
                                                          monkeypatch):
        record_checks = diagnostics._record_checks

        def one_violation(rec, config):
            checks = record_checks(rec, config)
            return (rec.k != 7,) + checks[1:]

        monkeypatch.setattr(diagnostics, "_record_checks", one_violation)
        assert cli.main(["solve", str(self._small_cauchy(tmp_path))]) == cli.EXIT_CHECK
        assert "audit failure: 1 violation(s)" in capsys.readouterr().err
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["audit"]["violations"] == [[7, diagnostics.AUDIT_NAMES[0]]]
        assert len(cli.read_trace(tmp_path / "t.csv")) == 40
        assert pgm.read_image(tmp_path / "r.pgm").shape == (16, 16)

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_audit_key_is_config_error(self, tmp_path, capsys, value):
        cfg = _write(tmp_path, "toy.yaml", TOY_CONFIG.format(
            trace=tmp_path / "t.csv", summary=tmp_path / "s.json")
            + f"audit: {value}\n")
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert "unknown top-level keys: audit" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_trace_rows_match_iterations(self, tmp_path):
        cfg = _write(
            tmp_path,
            "toy.yaml",
            TOY_CONFIG.format(trace=tmp_path / "t.csv",
                              summary=tmp_path / "s.json"),
        )
        assert cli.main(["solve", str(cfg)]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        rows = cli.read_trace(tmp_path / "t.csv")
        assert len(rows) == summary["iterations"]
        assert rows[0]["k"] == 0

    def test_missing_config_gives_io_exit(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "nope.yaml")]) == cli.EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_missing_input_image(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "bad.yaml",
            "problem:\n  kind: cauchy\n  image: missing.pgm\n  size: [8, 8]\n",
        )
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_IO

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.yaml",
                     "problem:\n  kind: toy1d\n  typo_key: 3\n")
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "problem: 5\n",
        "problem:\n  kind: toy1d\nsolver: [1, 2]\n",
    ])
    def test_section_not_a_mapping(self, tmp_path, capsys, text):
        cfg = _write(tmp_path, "bad.yaml", text)
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert "must be a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", ["in use", "SafeLoader"])
    @pytest.mark.parametrize("text", [
        "problem: [1, 2\n",
        "problem:\n  kind: toy1d\n bad: indent\n",
        "problem: {kind: toy1d}\n\tseed: 1\n",
    ])
    def test_malformed_yaml_is_config_error(self, tmp_path, capsys,
                                            monkeypatch, loader, text):
        if loader == "SafeLoader":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        cfg = _write(tmp_path, "bad.yaml", text)
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert "invalid YAML" in capsys.readouterr().err

    def test_invalid_solver_value(self, tmp_path):
        cfg = _write(
            tmp_path,
            "bad.yaml",
            "problem:\n  kind: toy1d\nsolver:\n  delta: 1.5\n",
        )
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("kind, solver, message", [
        ("compression", "metric: sg", "solver.metric 'sg' needs problem.kind"),
        ("toy1d", "metric: sg", "solver.metric 'sg' needs problem.kind"),
        ("compression", "metric: majorant",
         "solver.metric 'majorant' needs problem.kind"),
        ("toy1d", "metric: majorant",
         "solver.metric 'majorant' needs problem.kind"),
    ], ids=["sg-compression", "sg-toy1d", "majorant-compression",
            "majorant-toy1d"])
    def test_strategy_mismatch_is_config_error(self, tmp_path, capsys, kind,
                                               solver, message):
        cfg = _write(tmp_path, "bad.yaml",
                     f"problem:\n  kind: {kind}\n  size: [16, 16]\n"
                     f"solver:\n  {solver}\n")
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key", _UNREAD,
                             ids=[f"{kind}-{key}" for kind, key in _UNREAD])
    def test_key_the_kind_never_reads_is_config_error(self, tmp_path, capsys,
                                                      kind, key):
        problem = {"kind": kind, key: _KEY_VALUES[key]}
        cfg = _write(tmp_path, "bad.yaml", yaml.safe_dump({"problem": problem}))
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert f"problem keys not read by kind {kind!r}: {key}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind, solver, key", _SOLVER_UNREAD,
                             ids=[f"{kind}-{key}" for kind, _, key in _SOLVER_UNREAD])
    def test_solver_key_the_run_never_reads_is_config_error(
            self, tmp_path, capsys, monkeypatch, kind, solver, key):
        size = "" if kind == "toy1d" else "\n  size: [16, 16]"
        cfg = _write(tmp_path, "bad.yaml",
                     f"problem:\n  kind: {kind}{size}\nsolver:\n  {solver}\n")
        monkeypatch.setattr(cli, "minimize", _fail_if_called)
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert (f"config error: solver keys not read by kind {kind!r}: {key}\n"
                == capsys.readouterr().err)

    def test_solver_keys_the_run_reads_reach_it(self, tmp_path):
        cfg = _write(tmp_path, "ok.yaml", yaml.safe_dump({
            "problem": {"kind": "cauchy", "size": [16, 16], "lambda_reg": 0.5},
            "solver": {"tau": 3.0, "steplength": "ritz"}}))
        exp = load_experiment(cfg)
        problem = build_problem(exp, tmp_path)[0]
        assert (problem.lambda_reg, exp.steplength, exp.solver.tau) == (0.5, "ritz", 3.0)
        # the dual prox runs at the keyword defaults of DualTVProx
        assert (problem.prox.inner_limit, problem.prox.warm_start) == (5000, True)

    def test_deblurring_start_is_the_floored_clipped_observation(self, tmp_path):
        cfg = _write(tmp_path, "c.yaml", yaml.safe_dump({
            "problem": {"kind": "cauchy", "size": [16, 16]}, "seed": 5}))
        _, _, observed, x0, shape = build_problem(load_experiment(cfg), tmp_path)
        H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
        raw = degrade_synthetic(cartoon_image(shape), H, "cauchy", seed=5)
        assert raw.min() < 0.0 and raw.max() > 1.0
        assert observed.tobytes() == np.clip(raw, 0, 1).tobytes()
        assert x0.tobytes() == np.maximum(np.clip(raw, 0, 1), 1e-3).tobytes()

    @pytest.mark.parametrize("problem, message", [
        ("kind: cauchy\n  lambda_reg: -1.0", "lambda_reg must be positive"),
        ("kind: cauchy\n  lambda_reg: 0.0", "lambda_reg must be positive"),
        ("kind: cauchy\n  lambda_reg: .inf", "lambda_reg must be finite"),
        ("kind: cauchy\n  psf_sigma: 0.0", "psf_sigma must be positive, got 0.0"),
        ("kind: cauchy\n  psf_sigma: -1.0", "psf_sigma must be positive, got -1.0"),
        ("kind: cauchy\n  psf_sigma: .inf", "psf_sigma must be finite, got inf"),
        ("kind: gaussian_sd\n  psf_size: 4",
         "psf_size must be odd and positive, got 4"),
        ("kind: compression\n  box_upper: -1.0", "box_upper must be positive"),
        ("kind: gaussian_sd\n  rho: .nan", "rho must be nonnegative and finite"),
        ("kind: compression\n  lambda_reg: .nan", "lambda_reg must be finite"),
        ("kind: gaussian_sd\n  a: .nan", "a must be nonnegative and finite"),
        ("kind: cauchy\n  gamma_noise: .inf",
         "gamma_noise must be positive and finite"),
    ], ids=["lambda-negative", "lambda-zero", "lambda-inf", "sigma-zero",
            "sigma-negative", "sigma-inf", "psf-size-even", "box-upper-negative", "rho-nan",
            "compression-lambda-nan", "a-nan", "gamma-inf"])
    def test_model_value_out_of_range_names_its_key(self, tmp_path, capsys,
                                                    recwarn, problem, message):
        cfg = _write(tmp_path, "bad.yaml",
                     f"problem:\n  {problem}\n  size: [16, 16]\n"
                     "solver:\n  max_outer_iters: 3\n")
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("size", ["[true, 8]", "[8, false]"])
    def test_boolean_size_is_config_error(self, tmp_path, capsys, size):
        cfg = _write(tmp_path, "bad.yaml",
                     f"problem:\n  kind: compression\n  size: {size}\n")
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert (capsys.readouterr().err
                == "config error: problem.size must be two positive integers\n")

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "toy.yaml", TOY_CONFIG.format(
            trace=tmp_path / "t.csv", summary=tmp_path / "s.json"
        ).replace("seed: 0", "seed: -1"))
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert (capsys.readouterr().err
                == "config error: seed must be a non-negative integer\n")

    @pytest.mark.parametrize("command", ["solve", "degrade"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys,
                                                monkeypatch, command):
        cfg = _write(tmp_path, "c.yaml", "problem:\n  kind: cauchy\n"
                     "  size: [16, 16]\noutput:\n  observed: obs.f64\n")
        monkeypatch.setattr(cli, "build_problem", _fail_if_called)
        monkeypatch.setattr(cli, "deblur_data", _fail_if_called)
        assert cli.main([command, str(cfg), "--seed", "-1"]) == cli.EXIT_CONFIG
        assert (capsys.readouterr().err
                == "config error: --seed -1: must be non-negative\n")

    @pytest.mark.parametrize("kind, key", [("compression", "image"),
                                           ("cauchy", "observed")])
    def test_empty_image_names_the_file(self, tmp_path, capsys, kind, key):
        (tmp_path / "empty.pgm").write_bytes(b"P5\n0 4\n255\n")
        cfg = _write(tmp_path, "e.yaml", yaml.safe_dump(
            {"problem": {"kind": kind, key: "empty.pgm"}}))
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert (f"empty.pgm: empty PGM image, 0x4 pixels"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind", sorted(_KIND_READS))
    def test_every_key_the_kind_reads_loads(self, tmp_path, kind):
        problem = {"kind": kind,
                   **{key: _KEY_VALUES[key] for key in _KIND_READS[kind]}}
        cfg = _write(tmp_path, "ok.yaml", yaml.safe_dump({"problem": problem}))
        assert load_experiment(cfg).problem == problem

    def test_output_directories_are_created(self, tmp_path):
        cfg = _write(tmp_path, "toy.yaml", TOY_CONFIG.format(
            trace="out/deeper/t.csv", summary="out/s.json"))
        assert cli.main(["solve", str(cfg)]) == 0
        assert (tmp_path / "out" / "deeper" / "t.csv").is_file()
        assert (tmp_path / "out" / "s.json").is_file()

    def test_uncreatable_output_directory_fails_before_the_solve(
            self, tmp_path, capsys, monkeypatch):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        cfg = _write(tmp_path, "toy.yaml", TOY_CONFIG.format(
            trace="blocker/t.csv", summary="s.json"))
        monkeypatch.setattr(cli, "minimize", _fail_if_called)
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_IO
        assert "blocker" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_byte_identical_traces_same_seed(self, tmp_path):
        for run in ("a", "b"):
            cfg = _write(
                tmp_path,
                f"{run}.yaml",
                SMALL_CAUCHY.format(
                    trace=tmp_path / f"{run}.csv",
                    recon=tmp_path / f"{run}.pgm",
                    summary=tmp_path / f"{run}.json",
                ),
            )
            assert cli.main(["solve", str(cfg)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_solver_failure_names_outer_iteration(self, tmp_path, capsys,
                                                  monkeypatch):
        built = cli.build_problem

        def one_dual_iteration(*args):
            problem, *rest = built(*args)
            problem.prox.inner_limit = 1
            return (problem, *rest)

        monkeypatch.setattr(cli, "build_problem", one_dual_iteration)
        cfg = self._small_cauchy(tmp_path)
        exp = load_experiment(cfg)
        problem, _, _, x0, _ = cli.build_problem(exp, tmp_path)
        with pytest.raises(InexactProxError) as ei:
            minimize(problem, exp.solver, x0, metric=exp.metric,
                     steplength=exp.steplength)
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err
        assert (f"solver failure: outer iteration {ei.value.k}: "
                "no certificate within 1 dual iterations") in err

    # The toy and deblurring starts always lie in their domains; only a box
    # below the all-ones start mask can exclude the start.
    @pytest.mark.parametrize("problem, named", [
        ("kind: compression\n  size: [8, 8]\n  box_upper: 0.5",
         "problem.box_upper 0.5"),
    ], ids=["compression"])
    def test_infeasible_start_is_config_error(self, tmp_path, capsys,
                                              monkeypatch, problem, named):
        cfg = _write(tmp_path, "bad.yaml", f"problem:\n  {problem}\n")
        exp = load_experiment(cfg)
        with pytest.raises(ValueError, match=named):
            build_problem(exp, tmp_path)
        monkeypatch.setattr(cli, "minimize", _fail_if_called)
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {named} is below 1, the value of the start mask\n")

    @pytest.mark.parametrize("image, size", [
        ("synthetic:cartoon", [1, 8]),
        ("synthetic:smooth", [1, 1]),
    ], ids=["cartoon-1x8", "smooth-1x1"])
    def test_constant_compression_image_is_config_error(
            self, tmp_path, capsys, monkeypatch, image, size):
        # A constant image makes the l1 term drive every mask entry to 0,
        # where the diffusion system is singular.
        cfg = _write(tmp_path, "c.yaml", yaml.safe_dump({"problem": {
            "kind": "compression", "image": image, "size": size}}))
        monkeypatch.setattr(cli, "minimize", _fail_if_called)
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: problem.image {image} is constant on the "
            f"{size[0]}x{size[1]} grid; compression needs a nonconstant image\n")

    def test_thin_nonconstant_compression_image_solves(self, tmp_path):
        cfg = _write(tmp_path, "c.yaml", yaml.safe_dump({"problem": {
            "kind": "compression", "image": "synthetic:smooth", "size": [1, 8]}}))
        assert cli.main(["solve", str(cfg)]) == 0

    def test_negative_max_iters_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "toy.yaml", TOY_CONFIG.format(
            trace=tmp_path / "t.csv", summary=tmp_path / "s.json"))
        assert cli.main(["solve", str(cfg), "--max-iters", "-1"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --max-iters -1: ")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("size", [None, [12, 20]])
    def test_observed_without_image_sets_the_grid(self, tmp_path, size):
        observed = np.linspace(0.0, 1.0, 240).reshape(12, 20)
        pgm.write_raw_f64(tmp_path / "obs.f64", observed)
        problem = {"kind": "cauchy", "observed": "obs.f64",
                   **({} if size is None else {"size": size})}
        cfg = _write(tmp_path, "obs.yaml", yaml.safe_dump({
            "problem": problem, "solver": {"max_outer_iters": 3},
            "output": {"reconstruction": "r.f64", "summary": "s.json"}}))
        assert cli.main(["solve", str(cfg)]) == 0
        assert pgm.read_raw_f64(tmp_path / "r.f64").shape == (12, 20)
        assert json.loads((tmp_path / "s.json").read_text())["mse_final"] is None

    @pytest.mark.parametrize("problem", [
        {"size": [20, 12]},
        {"image": "synthetic:cartoon", "size": [16, 15]},
    ], ids=["size", "image"])
    def test_observed_off_the_grid_is_config_error(self, tmp_path, capsys,
                                                   problem):
        pgm.write_raw_f64(tmp_path / "obs.f64", np.full((12, 20), 0.5))
        cfg = _write(tmp_path, "obs.yaml", yaml.safe_dump({"problem": {
            "kind": "cauchy", "observed": "obs.f64", **problem}}))
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        grid = "x".join(map(str, problem["size"]))
        assert (f"config error: problem.observed is 12x20 pixels, not {grid}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind", ["compression", "cauchy"])
    def test_size_off_the_image_file_is_config_error(self, tmp_path, capsys,
                                                      kind):
        pgm.write_pgm(tmp_path / "img.pgm", np.linspace(0.0, 1.0, 256).reshape(16, 16))
        cfg = _write(tmp_path, "img.yaml", yaml.safe_dump({"problem": {
            "kind": kind, "image": "img.pgm", "size": [8, 8]}}))
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: problem.size is 8x8, but problem.image img.pgm "
            "is 16x16 pixels\n")

    @pytest.mark.parametrize("problem, message", [
        ({"size": [8, 8]}, "problem.psf_size 9 does not fit the 8x8 grid"),
        ({"observed": "obs.f64", "psf_size": 13},
         "problem.psf_size 13 does not fit the 12x20 grid"),
    ], ids=["size", "observed"])
    def test_psf_off_the_grid_names_its_key(self, tmp_path, capsys, problem,
                                            message):
        pgm.write_raw_f64(tmp_path / "obs.f64", np.full((12, 20), 0.5))
        cfg = _write(tmp_path, "psf.yaml", yaml.safe_dump(
            {"problem": {"kind": "cauchy", **problem}}))
        assert cli.main(["solve", str(cfg)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_seed_override_changes_data(self, tmp_path):
        cfg = _write(
            tmp_path,
            "c.yaml",
            SMALL_CAUCHY.format(trace=tmp_path / "c.csv",
                                recon=tmp_path / "c.pgm",
                                summary=tmp_path / "c.json"),
        )
        assert cli.main(["solve", str(cfg), "--max-iters", "5"]) == 0
        first = (tmp_path / "c.csv").read_bytes()
        assert cli.main(["solve", str(cfg), "--max-iters", "5",
                         "--seed", "99"]) == 0
        assert (tmp_path / "c.csv").read_bytes() != first


class TestDegrade:
    def test_deterministic_output(self, tmp_path):
        text = (
            "problem:\n"
            "  kind: cauchy\n"
            "  image: synthetic:cartoon\n"
            "  size: [16, 16]\n"
            "seed: 3\n"
            "output:\n"
            f"  observed: {tmp_path / 'obs.f64'}\n"
        )
        cfg = _write(tmp_path, "d.yaml", text)
        assert cli.main(["degrade", str(cfg)]) == 0
        first = (tmp_path / "obs.f64").read_bytes()
        assert cli.main(["degrade", str(cfg)]) == 0
        assert (tmp_path / "obs.f64").read_bytes() == first

    def test_output_directory_is_created(self, tmp_path):
        cfg = _write(tmp_path, "d.yaml", "problem:\n  kind: cauchy\n"
                     "  size: [16, 16]\noutput:\n  observed: out/obs.f64\n")
        assert cli.main(["degrade", str(cfg)]) == 0
        assert (tmp_path / "out" / "obs.f64").is_file()

    def test_uncreatable_output_directory_fails_before_degrading(
            self, tmp_path, capsys, monkeypatch):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        cfg = _write(tmp_path, "d.yaml", "problem:\n  kind: cauchy\n"
                     "  size: [16, 16]\noutput:\n  observed: blocker/obs.f64\n")
        monkeypatch.setattr(cli, "deblur_data", _fail_if_called)
        assert cli.main(["degrade", str(cfg)]) == cli.EXIT_IO
        assert "blocker" in capsys.readouterr().err

    def test_requires_observed_path(self, tmp_path):
        cfg = _write(
            tmp_path,
            "d.yaml",
            "problem:\n  kind: cauchy\n  image: synthetic:cartoon\n  size: [8, 8]\n",
        )
        assert cli.main(["degrade", str(cfg)]) == cli.EXIT_CONFIG

    def test_rejects_kind_without_noise_model(self, tmp_path):
        cfg = _write(tmp_path, "d.yaml", "problem:\n  kind: toy1d\n")
        assert cli.main(["degrade", str(cfg)]) == cli.EXIT_CONFIG


class TestCheck:
    def test_all_scopes_pass(self, tmp_path, capsys):
        assert cli.main(["check", "all", "--json",
                         str(tmp_path / "report.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] is True
        assert set(report["scopes"]) == {"adjoints", "gradients", "prox",
                                         "invariants"}

    def test_injected_gradient_bug_fails(self, capsys, monkeypatch):
        grad_f0 = SignalDependentGaussianProblem.grad_f0
        monkeypatch.setattr(SignalDependentGaussianProblem, "grad_f0",
                            lambda self, x: 1.001 * grad_f0(self, x))
        code = cli.main(["check", "gradients"])
        assert code == cli.EXIT_CHECK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False


class TestImageIO:
    def test_pgm_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((9, 7))
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        pgm.write_pgm(p1, img)
        back = pgm.read_pgm(p1)
        pgm.write_pgm(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.abs(back - np.clip(img, 0, 1)).max() <= 0.5 / 65535

    def test_pgm_8bit(self, tmp_path):
        img = np.linspace(0, 1, 12).reshape(3, 4)
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 3\n255\n"
                         + np.rint(img * 255).astype(np.uint8).tobytes())
        back = pgm.read_pgm(path)
        assert np.abs(back - img).max() <= 0.5 / 255

    @pytest.mark.parametrize("data, cause", [
        (b"P5\n2 2\n0\n" + bytes(4), "PGM maxval 0 outside 1..65535"),
        (b"P5\n2 2\n65536\n" + bytes(8), "PGM maxval 65536 outside 1..65535"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated PGM data"),
        (b"P5\n2 2\n65535\n" + bytes(7), "truncated PGM data"),
        (b"P5\n2 2\n", "truncated or malformed PGM header"),
        (b"P5\n2 -2\n255\n" + bytes(4), "truncated or malformed PGM header"),
        (b"P5\n0 2\n255\n", "empty PGM image, 0x2 pixels"),
        (b"P5\n2 0\n255\n", "empty PGM image, 2x0 pixels"),
    ], ids=["maxval-0", "maxval-65536", "short-8bit", "short-16bit",
            "no-maxval", "negative-height", "zero-width", "zero-height"])
    def test_bad_pgm_names_path_and_cause(self, tmp_path, data, cause):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError) as ei:
            pgm.read_pgm(path)
        assert str(ei.value).startswith(f"{path}: {cause}")

    @pytest.mark.parametrize("shape, damage, cause", [
        ((4, 4), lambda data: data[:-8],
         "truncated raw float64 data, 4x4 pixels expected"),
        ((4, 4), lambda data: data[:12], "truncated raw float64 header"),
        ((4, 4), lambda data: b"X" + data[1:], "not a raw float64 image file"),
        ((4, 0), lambda data: data, "empty raw float64 image, 4x0 pixels"),
    ], ids=["short-data", "short-header", "bad-magic", "zero-width"])
    def test_bad_raw_f64_names_path_and_cause(self, tmp_path, shape, damage,
                                              cause):
        path = tmp_path / "bad.f64"
        pgm.write_raw_f64(path, np.zeros(shape))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError) as ei:
            pgm.read_raw_f64(path)
        assert str(ei.value).startswith(f"{path}: {cause}")

    def test_raw_f64_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((5, 6))
        path = tmp_path / "x.f64"
        pgm.write_raw_f64(path, img)
        np.testing.assert_array_equal(pgm.read_raw_f64(path), img)

    def test_bad_files_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ValueError):
            pgm.read_pgm(path)
        with pytest.raises(ValueError):
            pgm.read_image(tmp_path / "thing.png")


class TestPresets:
    def test_shipped_presets_validate(self):
        presets = sorted(
            (Path(__file__).resolve().parents[1] / "presets").glob("*.yaml")
        )
        assert presets, "no shipped presets found"
        for path in presets:
            cfg = load_experiment(path)
            assert cfg.problem["kind"] in ("gaussian_sd", "cauchy",
                                           "compression", "toy1d")
            problem = build_problem(cfg, path.parent)[0]
            assert problem.kind == cfg.problem["kind"]

    def test_compression_preset_runs_briefly(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "presets" / "compression_32.yaml"
        raw = yaml.safe_load(src.read_text())
        raw["solver"]["max_outer_iters"] = 5
        raw["output"] = {"summary": str(tmp_path / "s.json")}
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert cli.main(["solve", str(cfg)]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["kind"] == "compression"
        assert "mask_density" in summary
        assert summary["mse_final"] is not None

    def test_presets_load_alike_with_the_pure_python_loader(self, monkeypatch):
        presets = sorted(
            (Path(__file__).resolve().parents[1] / "presets").glob("*.yaml"))
        in_use = [load_experiment(path) for path in presets]
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert [load_experiment(path) for path in presets] == in_use


class TestTraceFormat:
    def test_versioned_header(self, tmp_path):
        cfg = _write(
            tmp_path,
            "toy.yaml",
            TOY_CONFIG.format(trace=tmp_path / "t.csv",
                              summary=tmp_path / "s.json"),
        )
        cli.main(["solve", str(cfg)])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "# vmprox-trace-v1" == f"# {cli.TRACE_VERSION}"
        # the v1 columns: a change to IterateRecord must change TRACE_VERSION
        assert lines[1].split(",") == list(cli.TRACE_COLUMNS) == [
            "k", "f_value", "alpha", "lambda", "backtracks", "step_norm",
            "dist_tilde", "h_gamma", "epsilon_k", "inner_iters", "chose_tilde",
            "f_tilde", "f_linesearch", "f_next", "flags"]

    def test_every_record_field_reads_back_exactly(self, tmp_path):
        shape = (16, 16)
        H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
        observed = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy",
                                             seed=5), 0.0, 1.0)
        result = minimize(CauchyDeblurProblem(H, observed, shape),
                          SolverConfig(max_outer_iters=8, stop_tol=0.0),
                          np.maximum(observed, 1e-3), metric="sg", steplength="ritz")
        cli.write_trace(tmp_path / "t.csv", result.trace)
        rows = cli.read_trace(tmp_path / "t.csv")
        assert len(rows) == len(result.trace) == 8
        columns = {f.name: "lambda" if f.name == "lam" else f.name
                   for f in fields(IterateRecord) if f.name != "y_tilde"}
        for record, row in zip(result.trace, rows):
            assert list(row) == list(columns.values())
            assert row["chose_tilde"] in (0, 1)
            for name, column in columns.items():
                value, read = getattr(record, name), row[column]
                if isinstance(value, float):
                    assert type(read) is float and read.hex() == value.hex(), name
                else:
                    assert type(read) is int and read == value, name

    def test_columnar_trace_writes_the_bytes_of_its_records(self, tmp_path):
        shape = (16, 16)
        H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
        observed = np.clip(degrade_synthetic(cartoon_image(shape), H, "cauchy",
                                             seed=5), 0.0, 1.0)
        result = minimize(CauchyDeblurProblem(H, observed, shape),
                          SolverConfig(max_outer_iters=8, stop_tol=0.0),
                          np.maximum(observed, 1e-3), metric="sg", steplength="ritz")
        edge = _edge_records()
        for name, records in (("solve", list(result.trace)), ("edge", edge)):
            cli.write_trace(tmp_path / f"{name}_columns.csv", Trace(records))
            cli.write_trace(tmp_path / f"{name}_records.csv", records)
            columns = (tmp_path / f"{name}_columns.csv").read_bytes()
            assert columns == (tmp_path / f"{name}_records.csv").read_bytes()
        assert b",-inf," in columns and b",nan," in columns and b",-0.0," in columns

    @pytest.mark.parametrize("rows, message", [
        (["0,1.0,2.0"], "line 4 has 3 fields, the header 15"),
        ([",".join(["0"] * 16)], "line 4 has 16 fields, the header 15"),
        (None, "no header line"),
    ], ids=["short", "long", "no_header"])
    def test_row_off_the_header_names_file_and_line(self, tmp_path, rows, message):
        good = ",".join(["0"] * len(cli.TRACE_COLUMNS))
        lines = [",".join(cli.TRACE_COLUMNS), good, *rows] if rows else []
        path = tmp_path / "t.csv"
        path.write_text("\n".join([f"# {cli.TRACE_VERSION}", *lines]) + "\n")
        with pytest.raises(ValueError) as err:
            cli.read_trace(path)
        assert str(err.value) == f"{path}: {message}"

    def test_unversioned_trace_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,f\n0,1\n")
        with pytest.raises(ValueError):
            cli.read_trace(bad)

"""Command-line front end: run experiments, generate synthetic data and run
the built-in verification suites.

Exit codes: 0 success, 2 I/O error, 3 configuration error, 4 solver
failure, 5 verification/audit failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import diagnostics, pgm
from .config import (X0_FLOOR, ConfigError, build_problem, deblur_data, load_experiment,
                     resolve_path)
from .operators import ConvOperator2D, ForwardDifference2D, gaussian_psf, laplacian
from .problems import (
    DEBLUR_KINDS,
    CauchyDeblurProblem,
    LinearSolveError,
    MaskCompressionProblem,
    SignalDependentGaussianProblem,
    cartoon_image,
    degrade_synthetic,
    smooth_image,
)
from .prox import BoxProx, DualTVProx, InexactProxError, TVNonnegRegularizer, exact_prox_box
from .solver import IterateRecord, SolverConfig, SolverError, minimize
from .strategies import DiagonalMetric

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_SOLVER = 4
EXIT_CHECK = 5

TRACE_VERSION = "vmprox-trace-v1"
# (column, IterateRecord attribute, type) per scalar field of the record, in its
# order (``lam`` as ``lambda``); ints and bools are written as integers, floats
# through ``repr`` so they read back exactly.  TRACE_VERSION follows the record.
TRACE_FIELDS = tuple(("lambda" if f.name == "lam" else f.name, f.name,
                      float if f.type == "float" else int)
                     for f in dataclasses.fields(IterateRecord) if f.name != "y_tilde")
TRACE_COLUMNS = tuple(column for column, _, _ in TRACE_FIELDS)
_TRACE_TYPES = {column: kind for column, _, kind in TRACE_FIELDS}


def _fmt(value, kind):
    return str(int(value)) if kind is int else repr(float(value))


def write_trace(path, trace):
    """Headered CSV, one row per outer iteration, stable column set."""
    lines = [f"# {TRACE_VERSION}", ",".join(TRACE_COLUMNS)]
    for r in trace:
        lines.append(
            ",".join(_fmt(getattr(r, attr), kind) for _, attr, kind in TRACE_FIELDS)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path):
    """Parse a trace CSV back into a list of per-row dicts; a row whose
    field count is not the header's raises ``ValueError``."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != f"# {TRACE_VERSION}":
        raise ValueError("unrecognized trace file version")
    if len(lines) < 2:
        raise ValueError(f"{path}: no header line")
    header = lines[1].split(",")
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: line {number} has {len(parts)} fields, "
                             f"the header {len(header)}")
        rows.append({name: _TRACE_TYPES.get(name, float)(text)
                     for name, text in zip(header, parts)})
    return rows


def _solve_summary(cfg, problem, result, x_true, observed, wall_time, report):
    trace = result.trace
    summary = {
        "kind": problem.kind,
        "seed": cfg.seed,
        "metric": cfg.metric,
        "steplength": cfg.steplength,
        "iterations": len(trace),
        "final_f": trace[-1].f_next if trace else None,
        "mean_inner_iters": (
            float(np.mean([r.inner_iters for r in trace])) if trace else None
        ),
        "wall_time_s": wall_time,
        "psnr_degraded": None,
        "psnr_final": None,
        "mse_final": None,
        "audit": report.to_dict(),
    }
    if problem.kind == "compression" and x_true is not None:
        # quality is judged on the diffusion reconstruction, not the mask
        summary["mask_density"] = float(np.mean(result.x > 0.0))
        summary["mse_final"] = diagnostics.mse(
            problem.reconstruction(result.x), x_true
        )
    elif x_true is not None:
        if observed is not None:
            summary["psnr_degraded"] = _psnr_or_none(observed, x_true)
        summary["psnr_final"] = _psnr_or_none(result.x, x_true)
        summary["mse_final"] = diagnostics.mse(result.x, x_true)
    if problem.kind == "toy1d":
        summary["final_x"] = float(result.x[0])
        if trace and trace[0].y_tilde is not None:
            summary["first_prox_point"] = float(trace[0].y_tilde[0])
    return summary


def _psnr_or_none(x, x_true):
    try:
        value = diagnostics.psnr(x, x_true)
    except ValueError:
        return None
    return float(value) if np.isfinite(value) else None


def _input_failure(exc):
    """Report an unusable path or an invalid config; returns the exit code."""
    if isinstance(exc, OSError):
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _output_paths(cfg, keys, base_dir):
    """The outputs among ``keys`` that the config names, resolved against
    ``base_dir``, with their directories created before any work is done."""
    paths = {key: resolve_path(cfg.output[key], base_dir)
             for key in keys if key in cfg.output}
    for path in paths.values():
        path.parent.mkdir(parents=True, exist_ok=True)
    return paths


def cmd_solve(args):
    try:
        cfg = load_experiment(args.config)
    except (FileNotFoundError, ConfigError) as exc:
        return _input_failure(exc)

    if args.seed is not None:
        cfg.seed = args.seed
    if args.max_iters is not None:
        try:
            cfg.solver = dataclasses.replace(cfg.solver, max_outer_iters=args.max_iters)
        except ValueError as exc:
            return _input_failure(ConfigError(f"--max-iters {args.max_iters}: {exc}"))
    if args.trace is not None:
        cfg.output["trace"] = args.trace

    base_dir = Path(args.config).resolve().parent
    try:
        outputs = _output_paths(cfg, ("trace", "reconstruction", "summary"), base_dir)
        problem, x_true, observed, x0, shape = build_problem(cfg, base_dir)
    except (OSError, ValueError) as exc:
        return _input_failure(exc)

    t0 = time.perf_counter()
    try:
        result = minimize(
            problem,
            cfg.solver,
            x0,
            metric=cfg.metric,
            steplength=cfg.steplength,
            retain_prox_points=problem.kind == "toy1d",
        )
    except (SolverError, InexactProxError, LinearSolveError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    wall_time = time.perf_counter() - t0

    report = diagnostics.audit_trace(result.trace, cfg.solver)
    summary = _solve_summary(cfg, problem, result, x_true, observed, wall_time, report)

    try:
        if "trace" in outputs:
            write_trace(outputs["trace"], result.trace)
        if "reconstruction" in outputs:
            pgm.write_image(outputs["reconstruction"],
                            np.asarray(result.x, dtype=float).reshape(shape))
        if "summary" in outputs:
            outputs["summary"].write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
    except OSError as exc:
        print(f"error writing outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    print(json.dumps(summary, sort_keys=True, default=str))
    if not report.ok:
        print(
            f"audit failure: {report.total_violations} violation(s)",
            file=sys.stderr,
        )
        return EXIT_CHECK
    return EXIT_OK


def cmd_degrade(args):
    try:
        cfg = load_experiment(args.config)
    except (FileNotFoundError, ConfigError) as exc:
        return _input_failure(exc)
    kind = cfg.problem["kind"]
    if kind not in DEBLUR_KINDS:
        return _input_failure(ConfigError(f"cannot degrade for kind {kind!r}"))
    if "observed" not in cfg.output:
        return _input_failure(ConfigError("output.observed path required"))
    base_dir = Path(args.config).resolve().parent
    if args.seed is not None:
        cfg.seed = args.seed
    # degrade synthesizes data even when the config names an observed input
    cfg.problem.pop("observed", None)
    try:
        out = _output_paths(cfg, ("observed",), base_dir)["observed"]
        truth, _, observed = deblur_data(cfg, base_dir)
    except (OSError, ValueError) as exc:
        return _input_failure(exc)
    try:
        pgm.write_image(out, observed.reshape(truth.shape))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# built-in verification suites (`vmprox check <scope>`)


def _entry(name, value, tol):
    value = float(value)
    return {"name": name, "value": value, "tol": tol, "pass": bool(value <= tol)}


def _check_adjoints():
    shape = (16, 16)
    ops = {
        "conv_7x7": ConvOperator2D(gaussian_psf(7, 1.0), shape),
        "conv_9x9": ConvOperator2D(gaussian_psf(9, 1.0), shape),
        "tv_gradient": ForwardDifference2D(shape),
        "stacked_tv_identity": TVNonnegRegularizer(shape, 1.0),  # A = [grad; I]
    }
    checks = []
    for name, op in ops.items():
        resid = diagnostics.adjoint_max_residual(op, trials=20, seed=1)
        checks.append(_entry(name, resid, 1e-10))
    # The Laplacian is a matrix, its own adjoint exactly when symmetric.
    L = laplacian(shape)
    checks.append(_entry("laplacian", abs(L - L.T).max(), 0.0))
    return checks


def _check_gradients():
    rng = np.random.default_rng(17)
    shape = (8, 8)
    H = ConvOperator2D(gaussian_psf(7, 1.0), shape)
    truth = cartoon_image(shape)
    checks = []

    g_sd = degrade_synthetic(truth, H, "gaussian_sd", seed=5)
    prob_sd = SignalDependentGaussianProblem(H, g_sd, shape, rho=0.03)
    g_c = degrade_synthetic(truth, H, "cauchy", seed=5)
    prob_c = CauchyDeblurProblem(H, g_c, shape)
    for name, prob, tol in (("gaussian_sd", prob_sd, 1e-6), ("cauchy", prob_c, 1e-6)):
        worst = 0.0
        for trial in range(3):
            x = rng.random(prob.n) + 0.1
            worst = max(
                worst,
                diagnostics.fd_gradient_check(
                    prob.f0, prob.grad_f0, x, h=1e-6, trials=10, seed=trial
                ),
            )
        checks.append(_entry(name, worst, tol))

    shape6 = (6, 6)
    prob_k = MaskCompressionProblem(smooth_image(shape6), shape6, lambda_reg=0.01)
    c = rng.uniform(0.2, 1.3, prob_k.n)
    worst = diagnostics.fd_gradient_check(
        prob_k.f0, prob_k.grad_f0, c, h=1e-6, trials=10, seed=9
    )
    checks.append(_entry("compression", worst, 1e-5))
    return checks


def _check_prox():
    rng = np.random.default_rng(23)
    shape = (2, 2)
    reg = TVNonnegRegularizer(shape, rho=0.2)
    x = rng.random(4)
    grad = rng.standard_normal(4)
    alpha = 0.5
    metric = DiagonalMetric.from_inverse_diag(rng.uniform(0.5, 2.0, 4), 4.0)
    prox = DualTVProx(reg, inner_limit=200000, warm_start=False)
    cert = prox.solve(x, grad, reg.f1(x), alpha, metric, 1.0, 1e6 - 1, gap_tol=1e-12)
    z = x - alpha * grad / metric.diag
    y_star = diagnostics.dense_prox_oracle(z, alpha, metric, reg)
    agree = float(np.abs(cert.y_tilde - y_star).max())
    checks = [_entry("tv_dual_vs_oracle", agree, 1e-6)]
    box = BoxProx(0.0, 1.5)
    z2 = rng.standard_normal(8) * 2.0
    metric2 = DiagonalMetric.identity(8, 2.0)
    y_box = diagnostics.dense_prox_oracle(z2, 1.0, metric2, box)
    err = float(np.abs(y_box - exact_prox_box(z2, 0.0, 1.5)).max())
    checks.append(_entry("box_vs_oracle", err, 1e-12))
    return checks


def _check_invariants():
    shape = (16, 16)
    H = ConvOperator2D(gaussian_psf(9, 1.0), shape)
    truth = cartoon_image(shape)
    observed = np.clip(degrade_synthetic(truth, H, "cauchy", seed=3), 0.0, 1.0)
    problem = CauchyDeblurProblem(H, observed, shape)
    cfg = SolverConfig(max_outer_iters=60, stop_tol=0.0)
    result = minimize(problem, cfg, np.maximum(observed, X0_FLOOR))
    report = diagnostics.audit_trace(result.trace, cfg)
    return [_entry("descent_audits", report.total_violations, 0)]


def cmd_check(args):
    suites = {
        "adjoints": _check_adjoints,
        "gradients": _check_gradients,
        "prox": _check_prox,
        "invariants": _check_invariants,
    }
    scopes = list(suites) if args.scope == "all" else [args.scope]
    report = {"scopes": {}, "ok": True}
    for scope in scopes:
        checks = suites[scope]()
        ok = all(c["pass"] for c in checks)
        report["scopes"][scope] = {"checks": checks, "ok": ok}
        report["ok"] = report["ok"] and ok
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.json is not None:
        Path(args.json).write_text(text + "\n")
    print(text)
    return EXIT_OK if report["ok"] else EXIT_CHECK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vmprox",
        description="Variable-metric linesearch proximal-gradient benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an experiment from a config file")
    p_solve.add_argument("config")
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--max-iters", type=int, default=None)
    p_solve.add_argument("--trace", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="run built-in verification suites")
    p_check.add_argument(
        "scope", choices=["adjoints", "gradients", "prox", "invariants", "all"]
    )
    p_check.add_argument("--json", default=None)
    p_check.set_defaults(func=cmd_check)

    p_degrade = sub.add_parser("degrade", help="generate synthetic observed data")
    p_degrade.add_argument("config")
    p_degrade.add_argument("--seed", type=int, default=None)
    p_degrade.set_defaults(func=cmd_degrade)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        return _input_failure(ConfigError(f"--seed {args.seed}: must be non-negative"))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

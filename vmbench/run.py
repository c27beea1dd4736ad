"""vmprox benchmark: four solve workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 vmbench/run.py --workload cauchy_128 --seed 1 --seconds 25 --trace 0

The workloads run in this one process, one solve after another (a closed
loop with a single caller).  OpenBLAS runs one thread unless
``OPENBLAS_NUM_THREADS`` is set (see README.md for why).  With
``--trace 0`` the workload is repeated until ``--seconds`` would be
exceeded (at least once) and the end-to-end metrics are medians over the
repetitions.  With ``--trace 1`` the workload runs once untraced and once
with spans recorded around every public function of vmprox; the per-layer
metrics come from those spans and the tracing overhead is the difference
between the two solve times.

Every solve is checked (see ``checks.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any solve failed.
See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Must precede the numpy import.  In alternating runs of the same solves on
# a shared 2-CPU machine, their medians spread by 27% (quartile distance
# over median) with two OpenBLAS threads and by 19% with one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Set-ups timed per run; setup_s is their median.
SETUP_REPS = 15

END_TO_END_UNITS = {
    "solve_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_f": "1",
    "psnr_gain_db": "dB",
    "recon_mse": "1",
}


def load_vmprox():
    """Import vmprox from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "vmprox" / "__init__.py").is_file():
        raise SystemExit(f"error: no vmprox sources under {src}")
    sys.path.insert(0, str(src))
    import vmprox
    import vmprox.cli
    import vmprox.config
    import vmprox.pgm

    if Path(vmprox.__file__).resolve().parent != src / "vmprox":
        raise SystemExit(f"error: imported vmprox from {vmprox.__file__}, not {src}")
    return vmprox


@contextlib.contextmanager
def captured(owner, attr):
    """Record ``(args, kwargs, result)`` of every call to ``owner.attr``."""
    original = getattr(owner, attr)
    calls = []

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    setattr(owner, attr, capture)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def quality(vp, problem, x, truth, observed):
    """PSNR gain over the observed data and MSE of the reconstruction.

    For compression the reconstruction is the diffusion inpainting from the
    mask and the observed data is what the decoder receives: the image
    times the mask.
    """
    if problem.kind == "compression":
        recon, observed = problem.reconstruction(x), x * truth
    else:
        recon = x
    gain = vp.diagnostics.psnr(recon, truth) - vp.diagnostics.psnr(observed, truth)
    return float(gain), vp.diagnostics.mse(recon, truth)


class Solve:
    """One finished (or failed) solve and what is known about it."""

    def __init__(self, solve_s=None, problem=None, config=None, result=None,
                 truth=None, observed=None, failures=()):
        self.solve_s = solve_s
        self.problem = problem
        self.config = config
        self.result = result
        self.truth = truth
        self.observed = observed
        self.failures = list(failures)
        self.values = {}

    @property
    def records(self):
        return self.result.trace if self.result is not None else []

    def evaluate(self, vp, budget, reference, psnr_floor):
        if self.result is None:
            return
        gain, recon_mse = quality(vp, self.problem, self.result.x, self.truth,
                                  self.observed)
        final_f = self.records[-1].f_next if self.records else None
        self.values = {"final_f": final_f, "psnr_gain_db": gain,
                       "recon_mse": recon_mse}
        self.failures += checks.finite_failures("x", self.result.x)
        self.failures += checks.solve_failures(
            vp, self.records, self.config, budget, self.values,
            reference, psnr_floor)


class PresetWorkload:
    """A shipped preset run through ``vmprox solve`` from a copy of its YAML.

    The preset's own seed fixes the problem instance; see README.md for why
    the benchmark seed does not redraw its noise.
    """

    solves = 1

    def __init__(self, preset, reference, psnr_floor):
        self.preset = preset
        self.reference = reference
        self.psnr_floor = psnr_floor
        self.config_path = None

    def prepare(self, vp, workdir, seed):
        # Output paths in a preset are relative to the config file, so the
        # copy keeps the run's outputs out of presets/.
        self.config_path = workdir / Path(self.preset).name
        shutil.copyfile(ROOT / self.preset, self.config_path)
        cfg = vp.config.load_experiment(self.config_path)
        for path in cfg.output.values():
            (workdir / path).parent.mkdir(parents=True, exist_ok=True)
        self.outputs = {k: workdir / v for k, v in cfg.output.items()}
        self.budget = cfg.solver.max_outer_iters

    def setup(self, vp):
        cfg = vp.config.load_experiment(self.config_path)
        vp.config.build_problem(cfg, self.config_path.parent)

    def run(self, vp, iters, tracer=None):
        argv = ["solve", str(self.config_path)]
        if iters is not None:
            argv += ["--max-iters", str(iters)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with captured(vp.cli, "build_problem") as built, \
                captured(vp.cli, "minimize") as solved, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = vp.cli.main(argv)
        if code != 0 or not solved:
            return [Solve(failures=[f"vmprox solve exited with {code}: "
                                    f"{stderr.getvalue().strip()}"])]
        summary = json.loads(stdout.getvalue().splitlines()[-1])
        (args, _, result), = solved
        problem, truth, observed, _, _ = built[-1][2]
        solve = Solve(summary["wall_time_s"], problem, args[1], result, truth,
                      observed)
        solve.summary = summary
        return [solve]

    def output_failures(self, vp, solve):
        """The written summary and trace must agree with the solve itself."""
        out = []
        summary = solve.summary
        for name, key in (("final_f", "final_f"), ("recon_mse", "mse_final")):
            if not math.isclose(summary[key], solve.values[name], rel_tol=1e-12):
                out.append(f"summary {key} {summary[key]!r} != {solve.values[name]!r}")
        if summary["audit"]["total_violations"] != 0:
            out.append(f"summary reports audit violations: {summary['audit']}")
        rows = vp.cli.read_trace(self.outputs["trace"])
        if len(rows) != len(solve.records) or not math.isclose(
                rows[-1]["f_next"], solve.values["final_f"], rel_tol=1e-12):
            out.append("written trace disagrees with the solve")
        if not self.outputs["reconstruction"].is_file():
            out.append("no reconstruction written")
        return out

    def rep_failures(self, totals, iters):
        return []


class CauchyBatchWorkload:
    """Eight 32x32 Cauchy deblurring solves through the library API.

    Follows the README example; the noise of solve ``j`` is drawn from the
    ``j``-th state of ``SeedSequence(seed)``, so the benchmark seed fixes
    all inputs.
    """

    shape = (32, 32)
    solves = 8
    iters = 150
    reference = None
    psnr_floor = None  # applied to the batch mean, see rep_failures
    # Means over the eight solves.  Over seeds 1-20 they had medians
    # -1115.7 and 2.52e-3 with relative standard deviations of 0.3% and
    # 5.5%; the tolerances are about six of those deviations.
    mean_reference = {"final_f": (-1115.7, 0.02), "recon_mse": (2.52e-3, 0.3)}

    def prepare(self, vp, workdir, seed):
        states = np.random.SeedSequence(seed).generate_state(self.solves)
        self.noise_seeds = [int(s) for s in states]
        self.budget = self.iters

    def build(self, vp, noise_seed):
        H = vp.ConvOperator2D(vp.gaussian_psf(9, 1.0), self.shape)
        truth = vp.cartoon_image(self.shape)
        observed = np.clip(
            vp.degrade_synthetic(truth, H, "cauchy", seed=noise_seed), 0.0, 1.0)
        return vp.CauchyDeblurProblem(H, observed, self.shape), truth, observed

    def setup(self, vp):
        for noise_seed in self.noise_seeds:
            self.build(vp, noise_seed)

    def run(self, vp, iters, tracer=None):
        solves = []
        for j, noise_seed in enumerate(self.noise_seeds):
            if tracer is not None:
                tracer.solve_id = j
            try:
                problem, truth, observed = self.build(vp, noise_seed)
                config = vp.SolverConfig(max_outer_iters=iters or self.iters)
                t0 = time.perf_counter()
                result = vp.minimize(problem, config, np.maximum(observed, 1e-3),
                                     metric="sg", steplength="ritz")
                solve_s = time.perf_counter() - t0
                vp.audit_trace(result.trace, config)
            except Exception:  # a failed solve is counted, the batch goes on
                solves.append(Solve(failures=[traceback.format_exc(limit=3)]))
                continue
            solves.append(Solve(solve_s, problem, config, result, truth, observed))
        return solves

    def output_failures(self, vp, solve):
        return []

    def rep_failures(self, totals, iters):
        """Means over the batch against their references and the PSNR floor."""
        if iters is not None:
            return []
        out = []
        if not totals["psnr_gain_db"] >= checks.PSNR_GAIN_FLOOR_DB:
            out.append(f"batch mean psnr_gain_db {totals['psnr_gain_db']:.3f} "
                       f"below the {checks.PSNR_GAIN_FLOOR_DB} dB floor")
        means = {"final_f": totals["final_f"] / self.solves,
                 "recon_mse": totals["recon_mse"]}
        for name, (value, rtol) in self.mean_reference.items():
            if not abs(means[name] - value) <= rtol * abs(value):
                out.append(f"batch mean {name} {means[name]!r} outside "
                           f"{value!r} +- {rtol:g} relative")
        return out


WORKLOADS = {
    "cauchy_128": lambda: PresetWorkload(
        "presets/cauchy_synthetic_128.yaml",
        {"final_f": (-18560.8116, 1e-6), "recon_mse": (5.797e-4, 1e-3)},
        checks.PSNR_GAIN_FLOOR_DB),
    "gaussian_sd_64": lambda: PresetWorkload(
        "presets/gaussian_sd_synthetic_64.yaml",
        {"final_f": (710.187427631, 1e-6), "recon_mse": (0.11437985, 1e-3)},
        checks.PSNR_GAIN_FLOOR_DB),
    "compression_32": lambda: PresetWorkload(
        "presets/compression_32.yaml",
        {"final_f": (0.795973617, 1e-6), "recon_mse": (5.3472588e-4, 1e-3)},
        None),
    "cauchy_batch_32": CauchyBatchWorkload,
}


def run_rep(vp, workload, iters, tracer=None):
    """Run the workload once and check every solve; returns the solves."""
    full = iters is None
    try:
        solves = workload.run(vp, iters, tracer)
    except Exception:  # the whole repetition failed; count its solves
        return [Solve(failures=[traceback.format_exc(limit=3)])] * workload.solves
    finally:
        if tracer is not None:
            tracer.uninstall()
    budget = iters if iters is not None else workload.budget
    for solve in solves:
        solve.evaluate(vp, budget, workload.reference if full else None,
                       workload.psnr_floor if full else None)
        if solve.result is not None:
            solve.failures += workload.output_failures(vp, solve)
    return solves


def rep_totals(solves):
    """Workload totals of one repetition: sums, and means for quality."""
    ok = [s for s in solves if s.result is not None]
    iters = sum(len(s.records) for s in ok)
    solve_s = sum(s.solve_s for s in ok)
    return {
        "solve_s": solve_s,
        "iters": iters,
        "iters_per_s": iters / solve_s if solve_s > 0 else 0.0,
        "final_f": sum(s.values.get("final_f") or 0.0 for s in ok),
        "psnr_gain_db": statistics.fmean(s.values["psnr_gain_db"] for s in ok) if ok else 0.0,
        "recon_mse": statistics.fmean(s.values["recon_mse"] for s in ok) if ok else 0.0,
    }


def layer_metrics(spans, counts, solves, certificate_failures):
    """Per-layer metrics from the spans of one traced repetition."""
    names = {row[0] for row in spans}

    def pick(pred):
        return tracing.inclusive(spans, {n for n in names if pred(n)})

    own = tracing.layer_self_seconds(spans)
    records = [r for s in solves for r in s.records]
    inner = [r.inner_iters for s in solves if s.result is not None
             and not s.problem.prox.is_exact for r in s.records]
    prox_calls, prox_s = pick(lambda n: n in ("prox.DualTVProx.solve", "prox.BoxProx.solve"))
    project_calls, project_s = pick(lambda n: n == "prox.project_dual_tv")
    tv_calls, tv_s = pick(lambda n: n == "operators.isotropic_tv")
    fd_calls, fd_s = pick(lambda n: n.startswith("operators.ForwardDifference2D."))
    _, stack_adjoint_s = pick(lambda n: n == "operators.VStackOperator.adjoint")
    conv_calls, conv_s = pick(lambda n: n.startswith("operators.ConvOperator2D."))
    _, norm_bound_s = pick(lambda n: n == "operators.LinearOperator.norm_sq_bound")
    f0_calls, f0_s = pick(lambda n: n.startswith("problems.") and n.endswith(".f0"))
    grad_calls, grad_s = pick(lambda n: n.startswith("problems.") and n.endswith(".grad_f0"))
    _, linesearch_s = pick(lambda n: n == "solver.armijo_backtrack")
    _, metric_s = pick(lambda n: n.endswith("MetricStrategy.metric"))
    _, steplength_s = pick(lambda n: n.endswith(("SteplengthStrategy.choose",
                                                 "SteplengthStrategy.update")))
    ritz_calls, ritz_s = pick(lambda n: n == "strategies.ritz_steplengths")
    _, load_s = pick(lambda n: n == "config.load_experiment")
    _, build_s = pick(lambda n: n == "config.build_problem")
    _, audit_s = pick(lambda n: n == "diagnostics.audit_trace")
    _, write_s = pick(lambda n: n in ("cli.write_trace", "pgm.write_image"))
    lu_calls = counts["lu_calls"]
    lu_new = counts["lu_factorizations"]
    clamped = sum(
        1 for s in solves for r in s.records
        if r.alpha <= s.config.alpha_min or r.alpha >= s.config.alpha_max)
    to_rel = [iters_to_rel(s.records, 1e-5) for s in solves if s.records]
    traced_s = sum(s.solve_s for s in solves if s.solve_s is not None)

    metrics = {f"{layer}.self_s": own.get(layer, 0.0) for layer in tracing.LAYERS}
    metrics.update({
        "solver.outer_iters": len(records),
        "solver.linesearch_s": linesearch_s,
        "solver.backtracks": sum(r.backtracks for r in records),
        "solver.chose_tilde_ratio": ratio(sum(r.chose_tilde for r in records), len(records)),
        "solver.iters_to_rel_1e-5": statistics.fmean(to_rel) if to_rel else 0.0,
        "prox.solve_s": prox_s,
        "prox.calls": prox_calls,
        "prox.inner_iters": sum(inner),
        "prox.inner_iters_max": max(inner, default=0),
        "prox.ms_per_inner_iter": ratio(1e3 * prox_s, sum(inner)),
        "prox.warm_accept_ratio": ratio(sum(1 for i in inner if i == 0), len(inner)),
        "prox.project_calls": project_calls,
        "prox.project_s": project_s,
        "prox.certificate_violations": certificate_failures,
        "strategies.metric_s": metric_s,
        "strategies.steplength_s": steplength_s,
        "strategies.ritz_calls": ritz_calls,
        "strategies.ritz_s": ritz_s,
        "strategies.ritz_fallbacks": counts["ritz_fallbacks"],
        "strategies.alpha_clamped": clamped,
        "problems.f0_calls": f0_calls,
        "problems.f0_s": f0_s,
        "problems.grad_calls": grad_calls,
        "problems.grad_s": grad_s,
        "problems.lu_factorizations": lu_new,
        "problems.lu_reuse_ratio": ratio(lu_calls - lu_new, lu_calls),
        "operators.conv_calls": conv_calls,
        "operators.conv_direct_calls": counts["conv_direct_calls"],
        "operators.conv_s": conv_s,
        "operators.fd_calls": fd_calls,
        "operators.fd_s": fd_s,
        "operators.tv_calls": tv_calls,
        "operators.tv_s": tv_s,
        "operators.stack_adjoint_s": stack_adjoint_s,
        "operators.norm_bound_s": norm_bound_s,
        "config.load_s": load_s,
        "config.build_s": build_s,
        "diagnostics.audit_s": audit_s,
        "cli.write_s": write_s,
        "trace.solve_s": traced_s,
        "trace.spans": len(spans),
    })
    return metrics


LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "ms_per_inner_iter": "ms"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def ratio(num, den):
    return num / den if den else 0.0


def iters_to_rel(records, rtol):
    """Iterations until ``f_next`` is within ``rtol`` of the final value."""
    final = records[-1].f_next
    for r in records:
        if abs(r.f_next - final) <= rtol * abs(final):
            return r.k + 1
    return len(records)


def observe_layers(tracer):
    """Counters and the certificate audit, fed by span observers.

    Returns the counts and the list of ``(solve id, message)`` certificate
    violations; both fill up while the tracer is installed.
    """
    counts = {"lu_calls": 0, "lu_factorizations": 0,
              "ritz_fallbacks": 0, "conv_direct_calls": 0}
    violations = []
    last_system = [None]

    def on_certificate(args, kwargs, cert):
        tau = kwargs["tau"] if "tau" in kwargs else args[7]
        for msg in checks.certificate_violations(cert, tau):
            violations.append((tracer.solve_id, msg))

    def on_system(args, kwargs, result):
        counts["lu_calls"] += 1
        if result is not last_system[0]:  # a cache hit returns the same tuple
            counts["lu_factorizations"] += 1
            last_system[0] = result

    def on_ritz(args, kwargs, result):
        counts["ritz_fallbacks"] += result is None

    def on_conv(args, kwargs, result):
        counts["conv_direct_calls"] += not args[0]._use_fft()

    tracer.observe("prox.DualTVProx.solve", on_certificate)
    tracer.observe("problems.MaskCompressionProblem._system", on_system)
    tracer.observe("strategies.ritz_steplengths", on_ritz)
    tracer.observe("operators.ConvOperator2D.apply", on_conv)
    tracer.observe("operators.ConvOperator2D.adjoint", on_conv)
    return counts, violations


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "VMPROX_NUM_THREADS": os.environ.get("VMPROX_NUM_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("name,start,end,parent,solve\n")
        for name, start, end, parent, solve in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{solve}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iters", type=int, default=None,
                        help="cut every solve to this many iterations (smoke "
                             "tests; skips the full-length reference checks)")
    args = parser.parse_args(argv)
    if args.iters is not None and args.iters < 1:
        parser.error("--iters must be at least 1")
    vp = load_vmprox()

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload.prepare(vp, Path(tmp), args.seed)
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload.setup(vp)
            setups.append(time.perf_counter() - t0)

        reps = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            reps.append(run_rep(vp, workload, args.iters))
            took = time.perf_counter() - t0
            if args.trace or time.perf_counter() + took > start + args.seconds:
                break

        if args.trace:
            tracer = tracing.Tracer()
            counts, violations = observe_layers(tracer)
            tracer.install(vp)
            traced = run_rep(vp, workload, args.iters, tracer)
            for solve_id, msg in violations:
                traced[solve_id].failures.append(f"certificate: {msg}")
            reps.append(traced)
            write_spans(OUT_DIR / f"spans-{args.workload}.csv", tracer.spans)

    attempted = sum(len(rep) for rep in reps)
    failures = [(i, f) for rep in reps for i, s in enumerate(rep) for f in s.failures]
    failed = sum(1 for rep in reps for s in rep if s.failures)
    totals = [rep_totals(rep) for rep in reps]
    rep_errors = workload.rep_failures(totals[0], args.iters)
    if rep_errors:
        failures += [(None, f) for f in rep_errors]
        failed = max(failed, 1)

    if args.trace:
        metrics = layer_metrics(tracer.spans, counts, reps[-1], len(violations))
        metrics["trace.untraced_solve_s"] = totals[0]["solve_s"]
        metrics["trace.overhead_s"] = totals[-1]["solve_s"] - totals[0]["solve_s"]
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "solve_s": statistics.median(t["solve_s"] for t in totals),
            "iters_per_s": statistics.median(t["iters_per_s"] for t in totals),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_f": totals[-1]["final_f"],
            "psnr_gain_db": totals[-1]["psnr_gain_db"],
            "recon_mse": totals[-1]["recon_mse"],
        }
        units = END_TO_END_UNITS

    print(f"vmprox benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} repetitions={len(reps)}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':28s} {ratio(failed, attempted):>16.6g} ratio "
          f"({failed} of {attempted} solves)")
    if args.trace:
        total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        shares = {layer: round(ratio(metrics[f"{layer}.self_s"], total), 4)
                  for layer in tracing.LAYERS}
        print("self-time shares " + json.dumps(shares))
    for index, msg in failures[:20]:
        print(f"FAILED solve {index}: {msg}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

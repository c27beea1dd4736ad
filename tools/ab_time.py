"""Time ``minimize`` for two checkouts in one process.

Imports the ``vmprox`` package of this checkout and of another one into the
same interpreter, under two package names, and solves the same problems
with each.  Every solve gets a problem freshly built by its own side; only
the ``minimize`` calls are timed.  After one untimed warm-up per side, the
tool runs ``--pairs`` pairs, and the side that runs first alternates from
pair to pair.  It prints each side's median and quartiles, how many pairs
each side won, and whether the two sides' ``final_f`` agree bit for bit.

Given a preset, a pair solves it once per side, and the tool also prints
each side's mean inner (dual) iterations per outer step.  ``--seed``
replaces the preset's noise seed on both sides, so a change that moves bits
can be timed over several noise draws.  With ``--batch`` instead, a pair
side is the eight solves of the benchmark's ``cauchy_batch_32`` workload at
seed 1, and its time is their sum.  Each side keeps every solve (problem,
truth, observed data and result), as ``vmbench/run.py`` keeps them, and the
tool prints the bytes that one more kept solve holds (tracemalloc, the mean
over eight solves, measured after the timed pairs).

Before any solve, it times the set-up: 40 rounds, the side that runs first
alternating, each timing 15 set-ups per side: ``load_experiment`` plus
``build_problem`` for a preset, the eight problems for ``--batch``.  It
prints each side's median of its round medians and how many rounds each
side won.  A set-up takes about a millisecond, and its process-level median
can shift by a quarter between processes with no set-up code changed.

Process-level pairs on a shared machine spread by several percent, so a
difference of a few percent needs many of them.  Alternating in one process
takes the start-up and the machine's drift out of each pair.  This is a
sizing aid for a change, not a replacement for the benchmark in
``vmbench/``, which is what gates a claim.

    python tools/ab_time.py --against ../parent presets/compression_32.yaml
    python tools/ab_time.py --against ../parent --pairs 12 --max-iters 100 \\
        presets/gaussian_sd_synthetic_64.yaml
    python tools/ab_time.py --against ../parent --pairs 4 --seed 3 \\
        presets/gaussian_sd_synthetic_64.yaml
    python tools/ab_time.py --against ../parent --pairs 30 --batch

``OPENBLAS_NUM_THREADS`` is 1 unless the environment sets it.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS

import argparse
import dataclasses
import gc
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 40
SETUP_CALLS = 15  # set-ups timed per side and round

# The benchmark's cauchy_batch_32 workload, as CauchyBatchWorkload in
# vmbench/run.py runs it at seed 1.
BATCH_SHAPE = (32, 32)
BATCH_ITERS = 150
BATCH_NOISE_SEEDS = [int(s) for s in np.random.SeedSequence(1).generate_state(8)]


def batch_problem(vp, noise_seed):
    """``(problem, truth, observed)`` of one ``cauchy_batch_32`` solve of the
    package ``vp``."""
    H = vp.ConvOperator2D(vp.gaussian_psf(9, 1.0), BATCH_SHAPE)
    truth = vp.cartoon_image(BATCH_SHAPE)
    observed = np.clip(
        vp.degrade_synthetic(truth, H, "cauchy", seed=noise_seed), 0.0, 1.0)
    return vp.CauchyDeblurProblem(H, observed, BATCH_SHAPE), truth, observed


def batch_solve(vp, problem, observed):
    """The ``minimize`` call of one ``cauchy_batch_32`` solve."""
    return vp.minimize(problem, vp.SolverConfig(max_outer_iters=BATCH_ITERS),
                       np.maximum(observed, 1e-3), metric="sg",
                       steplength="ritz")


def load_package(alias, checkout):
    """Import ``<checkout>/src/vmprox`` as the package ``alias``."""
    init = Path(checkout).resolve() / "src" / "vmprox" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no src/vmprox package in {checkout}")
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One checkout's ``vmprox``: its timed solves and set-ups."""

    def __init__(self, name, alias, checkout):
        self.name = name
        self.checkout = checkout
        self.vp = load_package(alias, checkout)
        self.times = []
        self.final_f = []  # per timed pair side, the final_f of each solve
        self.setup_times = []

    def setup_round(self):
        """Record the median time of ``SETUP_CALLS`` calls of ``build``."""
        gc.collect()
        times = []
        for _ in range(SETUP_CALLS):
            start = time.perf_counter()
            self.build()
            times.append(time.perf_counter() - start)
        self.setup_times.append(statistics.median(times))


class PresetSide(Side):
    """Solves one preset, built by the side's own config loader."""

    def __init__(self, name, alias, checkout, preset, max_iters, seed):
        super().__init__(name, alias, checkout)
        self.config = importlib.import_module(f"{alias}.config")
        self.preset = Path(preset).resolve()
        self.max_iters = max_iters
        self.seed = seed

    def build(self):
        """The preset's config and ``build_problem``'s output for it."""
        cfg = self.config.load_experiment(self.preset)
        if self.seed is not None:
            cfg = dataclasses.replace(cfg, seed=self.seed)
        return cfg, self.config.build_problem(cfg, self.preset.parent)

    def solve(self, timed):
        cfg, (problem, _, _, x0, _) = self.build()
        solver = cfg.solver
        if self.max_iters is not None:
            solver = dataclasses.replace(solver, max_outer_iters=self.max_iters)
        gc.collect()
        start = time.perf_counter()
        result = self.vp.minimize(problem, solver, x0, metric=cfg.metric,
                                  steplength=cfg.steplength)
        elapsed = time.perf_counter() - start
        if timed:
            self.times.append(elapsed)
            self.final_f.append([result.trace[-1].f_next if result.trace
                                 else None])
        return result.trace


class BatchSide(Side):
    """Solves the eight ``cauchy_batch_32`` problems and keeps every solve."""

    def __init__(self, name, alias, checkout):
        super().__init__(name, alias, checkout)
        self.kept = []

    def build(self):
        return [batch_problem(self.vp, seed) for seed in BATCH_NOISE_SEEDS]

    def solve(self, timed):
        built = self.build()
        gc.collect()
        elapsed = 0.0
        final_f = []
        for problem, truth, observed in built:
            start = time.perf_counter()
            result = batch_solve(self.vp, problem, observed)
            elapsed += time.perf_counter() - start
            self.kept.append((problem, truth, observed, result))
            final_f.append(result.trace[-1].f_next)
        if timed:
            self.times.append(elapsed)
            self.final_f.append(final_f)

    def kept_bytes(self):
        """Traced bytes that one more kept solve holds, over eight solves."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self.solve(timed=False)
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / len(BATCH_NOISE_SEEDS)
        finally:
            tracemalloc.stop()


def in_turn(sides, index):
    """``sides``, reversed at odd ``index``: the first side alternates."""
    return sides if index % 2 == 0 else sides[::-1]


def print_times(sides, pairs, extra_name, extra):
    """Each side's quartiles and ``extra`` column, the wins and the ratio."""
    print(f"{'side':8s} {'median_s':>9s} {'q1_s':>9s} {'q3_s':>9s} "
          f"{extra_name:>9s}  checkout")
    for side in sides:
        q1, median, q3 = statistics.quantiles(side.times, n=4, method="inclusive")
        print(f"{side.name:8s} {median:9.4f} {q1:9.4f} {q3:9.4f} "
              f"{extra(side):>9s}  {side.checkout}")
    ours, theirs = sides
    won = sum(a < b for a, b in zip(ours.times, theirs.times))
    ratio = statistics.median(ours.times) / statistics.median(theirs.times)
    print(f"repo faster in {won} of {pairs} pairs; "
          f"median ratio repo/against {ratio:.4f}")


def print_final_f(sides):
    """Whether every timed solve's ``final_f`` is bitwise equal across sides."""
    ours, theirs = sides
    differ = sorted({j for a, b in zip(ours.final_f, theirs.final_f)
                     for j, (fa, fb) in enumerate(zip(a, b))
                     if fa is None or fb is None or fa.hex() != fb.hex()})
    last = ours.final_f[-1], theirs.final_f[-1]
    if not differ:
        print(f"final_f bitwise equal in every solve: {last[0]!r}")
    else:
        print(f"final_f differs in solves {differ}: "
              f"repo {last[0]!r}, against {last[1]!r}")


def print_setup(sides, what):
    print(f"set-up: {SETUP_ROUNDS} rounds of {SETUP_CALLS} {what} per side, "
          "first side alternating")
    print(f"{'side':8s} {'median_ms':>9s}  checkout")
    for side in sides:
        print(f"{side.name:8s} {1e3 * statistics.median(side.setup_times):9.4f}"
              f"  {side.checkout}")
    print("median_ms: median over rounds of each round's median set-up")
    ours, theirs = sides
    won = sum(a < b for a, b in zip(ours.setup_times, theirs.setup_times))
    ratio = (statistics.median(ours.setup_times)
             / statistics.median(theirs.setup_times))
    print(f"repo faster in {won} of {SETUP_ROUNDS} rounds; "
          f"median ratio repo/against {ratio:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset", type=Path, nargs="?",
                        help="experiment config to solve")
    parser.add_argument("--against", type=Path, required=True,
                        help="checkout to compare with")
    parser.add_argument("--batch", action="store_true",
                        help="time the eight cauchy_batch_32 solves instead "
                             "of a preset")
    parser.add_argument("--pairs", type=int, default=10,
                        help="timed pairs (default: 10)")
    parser.add_argument("--max-iters", type=int, default=None,
                        help="outer iterations per solve (default: the preset's)")
    parser.add_argument("--seed", type=int, default=None,
                        help="noise seed of both sides (default: the preset's)")
    args = parser.parse_args(argv)
    if (args.preset is None) == (not args.batch):
        parser.error("give either a preset or --batch")
    if args.batch and (args.max_iters is not None or args.seed is not None):
        parser.error("--max-iters and --seed apply to a preset, not --batch")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.max_iters is not None and args.max_iters < 1:
        parser.error("--max-iters must be at least 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.batch:
        sides = (BatchSide("repo", "vmprox_ab_repo", ROOT),
                 BatchSide("against", "vmprox_ab_against", args.against))
    else:
        sides = tuple(
            PresetSide(name, alias, checkout, args.preset, args.max_iters,
                       args.seed)
            for name, alias, checkout in (
                ("repo", "vmprox_ab_repo", ROOT),
                ("against", "vmprox_ab_against", args.against)))
    # Set-ups first: no kept solve holds a blur's transfer function yet, so
    # every build computes its own, as in the benchmark's set-up.
    for round_ in range(SETUP_ROUNDS):
        for side in in_turn(sides, round_):
            side.setup_round()
    traces = {side.name: side.solve(timed=False) for side in sides}
    for pair in range(args.pairs):
        for side in in_turn(sides, pair):
            side.solve(timed=True)
    if args.batch:
        kept = {side.name: side.kept_bytes() for side in in_turn(sides, args.pairs)}

    if args.batch:
        print(f"cauchy_batch_32: {args.pairs} pairs, first side alternating; "
              f"a pair side sums {len(BATCH_NOISE_SEEDS)} solves of "
              f"{BATCH_ITERS} iterations; each side keeps its solves")
        print_times(sides, args.pairs, "kept_kb",
                    lambda side: f"{kept[side.name] / 1e3:.1f}")
        print("kept_kb: traced kB that one more kept solve holds (problem, "
              "truth, observed, result), mean over the eight")
        print(f"kept bytes per solve, repo/against "
              f"{kept['repo'] / kept['against']:.4f}")
        print_final_f(sides)
        print_setup(sides, "builds of the eight problems")
        return 0
    seed = "the preset's" if args.seed is None else args.seed
    print(f"{args.preset.name}: {args.pairs} pairs, first side alternating; "
          f"noise seed {seed}; iterations per solve: "
          f"repo {len(traces['repo'])}, against {len(traces['against'])}")
    inner = {name: (sum(r.inner_iters for r in trace) / len(trace) if trace
                    else float("nan")) for name, trace in traces.items()}
    print_times(sides, args.pairs, "inner",
                lambda side: f"{inner[side.name]:.2f}")
    print("inner: mean inner (dual) iterations per outer step")
    print_final_f(sides)
    print_setup(sides, "load_experiment + build_problem calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())

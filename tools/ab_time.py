"""Time ``minimize`` on one preset for two checkouts in one process.

Imports the ``vmprox`` package of this checkout and of another one into the
same interpreter, under two package names, and solves one preset with each.
Every solve gets a problem freshly built by its own side's config loader;
only the ``minimize`` call is timed.  After one untimed warm-up solve per
side, the tool runs ``--pairs`` pairs, and the side that runs first
alternates from pair to pair.  It prints each side's median and quartiles,
its mean inner (dual) iterations per outer step, how many pairs each side
won, and whether the two sides' ``final_f`` agree bit for bit.  ``--seed``
replaces the preset's noise seed on both sides, so a change that moves bits
can be timed over several noise draws.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    """One checkout's ``vmprox``, solving one preset."""

    def __init__(self, name, alias, checkout, preset, max_iters, seed):
        self.name = name
        load_package(alias, checkout)
        self.config = importlib.import_module(f"{alias}.config")
        self.solver = importlib.import_module(f"{alias}.solver")
        self.preset = Path(preset).resolve()
        self.max_iters = max_iters
        self.seed = seed
        self.times = []
        self.final_f = []

    def solve(self, timed):
        cfg = self.config.load_experiment(self.preset)
        if self.seed is not None:
            cfg = dataclasses.replace(cfg, seed=self.seed)
        solver = cfg.solver
        if self.max_iters is not None:
            solver = dataclasses.replace(solver, max_outer_iters=self.max_iters)
        problem, _, _, x0, _ = self.config.build_problem(cfg, self.preset.parent)
        gc.collect()
        start = time.perf_counter()
        result = self.solver.minimize(problem, solver, x0, metric=cfg.metric,
                                      steplength=cfg.steplength)
        elapsed = time.perf_counter() - start
        if timed:
            self.times.append(elapsed)
            self.final_f.append(result.trace[-1].f_next if result.trace else None)
        return result.trace


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset", type=Path, help="experiment config to solve")
    parser.add_argument("--against", type=Path, required=True,
                        help="checkout to compare with")
    parser.add_argument("--pairs", type=int, default=10,
                        help="timed pairs (default: 10)")
    parser.add_argument("--max-iters", type=int, default=None,
                        help="outer iterations per solve (default: the preset's)")
    parser.add_argument("--seed", type=int, default=None,
                        help="noise seed of both sides (default: the preset's)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.max_iters is not None and args.max_iters < 1:
        parser.error("--max-iters must be at least 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    ours = Side("repo", "vmprox_ab_repo", ROOT, args.preset, args.max_iters,
                args.seed)
    theirs = Side("against", "vmprox_ab_against", args.against, args.preset,
                  args.max_iters, args.seed)
    traces = {side.name: side.solve(timed=False) for side in (ours, theirs)}
    for pair in range(args.pairs):
        for side in ((ours, theirs) if pair % 2 == 0 else (theirs, ours)):
            side.solve(timed=True)

    seed = "the preset's" if args.seed is None else args.seed
    print(f"{args.preset.name}: {args.pairs} pairs, first side alternating; "
          f"noise seed {seed}; iterations per solve: "
          f"repo {len(traces['repo'])}, against {len(traces['against'])}")
    print(f"{'side':8s} {'median_s':>9s} {'q1_s':>9s} {'q3_s':>9s} "
          f"{'inner':>7s}  checkout")
    for side, checkout in ((ours, ROOT), (theirs, args.against)):
        q1, median, q3 = statistics.quantiles(side.times, n=4, method="inclusive")
        trace = traces[side.name]
        inner = (sum(r.inner_iters for r in trace) / len(trace) if trace
                 else float("nan"))
        print(f"{side.name:8s} {median:9.4f} {q1:9.4f} {q3:9.4f} {inner:7.2f}"
              f"  {checkout}")
    print("inner: mean inner (dual) iterations per outer step")
    won = sum(a < b for a, b in zip(ours.times, theirs.times))
    ratio = statistics.median(ours.times) / statistics.median(theirs.times)
    print(f"repo faster in {won} of {args.pairs} pairs; "
          f"median ratio repo/against {ratio:.4f}")
    same = all(a is not None and b is not None and a.hex() == b.hex()
               for a, b in zip(ours.final_f, theirs.final_f))
    last = ours.final_f[-1], theirs.final_f[-1]
    if same:
        print(f"final_f bitwise equal: {last[0]!r}")
    else:
        print(f"final_f differs: repo {last[0]!r}, against {last[1]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

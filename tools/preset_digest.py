"""Print short sha256 digests of what each shipped preset writes.

Runs every ``presets/*.yaml`` through ``vmprox solve`` in this process,
from a copy of the config in a temporary directory, with one BLAS thread.
For each preset it prints the first 16 hex digits of the sha256 of the
trace CSV, the reconstruction image (when the preset writes one), the
solution ``x`` as float64 bytes and the JSON summary less ``wall_time_s``.
Then it prints the digests of the trace CSV and of ``x`` for each of the
eight seed-1 solves of the ``cauchy_batch_32`` benchmark workload, built
by the builder that ``tools/ab_time.py --batch`` times them with.  A refactor
that is meant to leave every output byte-identical prints the same lines
before and after; ``--against`` makes that check one command.

    python tools/preset_digest.py                    # this checkout
    python tools/preset_digest.py --against ../other # only the lines that differ

With ``--against`` the tool also imports the other checkout's ``vmprox`` into
this process, as ``tools/ab_time.py`` does, computes its lines the same way
from that checkout's own presets, and prints each line that differs twice:
``-`` with the other checkout's value, ``+`` with this one's.  It exits 1
when any line differs.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from ab_time import BATCH_NOISE_SEEDS, batch_problem, batch_solve, load_package

ROOT = Path(__file__).resolve().parent.parent


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def run_preset(cli, config_path):
    """Solve one preset; returns the solution and the configured outputs."""
    cfg = cli.load_experiment(config_path)
    outputs = {key: config_path.parent / path for key, path in cfg.output.items()}
    for path in outputs.values():  # older checkouts do not create them
        path.parent.mkdir(parents=True, exist_ok=True)
    solved = []
    minimize = cli.minimize

    def capture(*args, **kwargs):
        solved.append(minimize(*args, **kwargs))
        return solved[-1]

    cli.minimize = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["solve", str(config_path)])
    finally:
        cli.minimize = minimize
    if code != 0:
        raise SystemExit(f"error: vmprox solve {config_path.name} exited with {code}")
    return solved[0].x, outputs


def preset_lines(cli, preset, workdir):
    config_path = workdir / preset.name
    shutil.copyfile(preset, config_path)
    x, outputs = run_preset(cli, config_path)
    lines = []
    for key in ("trace", "reconstruction"):
        if key in outputs:
            lines.append((key, digest(outputs[key].read_bytes())))
    lines.append(("x", digest(x.astype("<f8").tobytes())))
    summary = json.loads(outputs["summary"].read_text())
    summary.pop("wall_time_s")
    lines.append(("summary", digest(json.dumps(summary, sort_keys=True).encode())))
    return lines


def batch_lines(vp, cli, workdir):
    """Digests of the eight ``cauchy_batch_32`` solves at benchmark seed 1."""
    lines = []
    for j, noise_seed in enumerate(BATCH_NOISE_SEEDS):
        problem, _, observed = batch_problem(vp, noise_seed)
        result = batch_solve(vp, problem, observed)
        trace = workdir / f"batch_{j}.csv"
        cli.write_trace(trace, result.trace)
        lines.append((f"cauchy_batch_32[{j}]", "trace", digest(trace.read_bytes())))
        lines.append((f"cauchy_batch_32[{j}]", "x",
                      digest(result.x.astype("<f8").tobytes())))
    return lines


def digest_lines(vp, cli, checkout):
    """The tool's output lines for the package ``vp`` and its ``cli`` module,
    solving the presets of ``checkout``."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted((Path(checkout) / "presets").glob("*.yaml")):
            for key, value in preset_lines(cli, preset, Path(tmp)):
                lines.append(f"{preset.stem:24s} {key:15s} {value}")
        for name, key, value in batch_lines(vp, cli, Path(tmp)):
            lines.append(f"{name:24s} {key:15s} {value}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="checkout to compare with: print only differing lines")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vmprox as vp
    import vmprox.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported vmprox from {cli.__file__}, not {src}")
    lines = digest_lines(vp, cli, ROOT)
    if args.against is None:
        print("\n".join(lines))
        return 0
    other_vp = load_package("vmprox_against", args.against)
    other = digest_lines(other_vp, importlib.import_module("vmprox_against.cli"),
                         args.against)
    differ = [(theirs, ours) for theirs, ours
              in zip_longest(other, lines, fillvalue="(no line)") if theirs != ours]
    for theirs, ours in differ:
        print(f"- {theirs}\n+ {ours}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

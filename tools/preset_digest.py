"""Print short sha256 digests of what each shipped preset writes.

Runs every ``presets/*.yaml`` through ``vmprox solve`` in this process,
as the benchmark's ``PresetWorkload`` (``vmbench/run.py``) runs it: from a
copy of the config in a temporary directory, with one BLAS thread.  For
each preset it prints the first 16 hex digits of the sha256 of the trace
CSV, the reconstruction image (when the preset writes one), the solution
``x`` as float64 bytes and the JSON summary less ``wall_time_s``.  Then it
prints the digests of the trace CSV and of ``x`` for each solve of the
benchmark's ``CauchyBatchWorkload`` at seed 1, the run that
``tools/ab_time.py --batch`` times.  A refactor that is meant to leave
every output byte-identical prints the same lines before and after;
``--against`` makes that check one command.

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
import hashlib
import json
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from ab_time import ROOT, load_package, run


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def preset_lines(vp, preset, workdir):
    workload = run.PresetWorkload(preset.resolve(), None, None)
    workload.prepare(vp, workdir, None)
    solve, = workload.run(vp, None)
    if solve.failures:
        raise SystemExit(f"error: {preset.name}: {solve.failures[0]}")
    lines = []
    for key in ("trace", "reconstruction"):
        if key in workload.outputs:
            lines.append((key, digest(workload.outputs[key].read_bytes())))
    lines.append(("x", digest(solve.result.x.astype("<f8").tobytes())))
    summary = json.loads(workload.outputs["summary"].read_text())
    summary.pop("wall_time_s")
    lines.append(("summary", digest(json.dumps(summary, sort_keys=True).encode())))
    return lines


def batch_lines(vp, workdir):
    """Digests of the ``cauchy_batch_32`` solves at benchmark seed 1."""
    workload = run.CauchyBatchWorkload()
    workload.prepare(vp, workdir, 1)
    lines = []
    for j, solve in enumerate(workload.run(vp, None)):
        if solve.failures:
            raise SystemExit(f"error: cauchy_batch_32[{j}]: {solve.failures[0]}")
        trace = workdir / f"batch_{j}.csv"
        vp.cli.write_trace(trace, solve.result.trace)
        lines.append((f"cauchy_batch_32[{j}]", "trace", digest(trace.read_bytes())))
        lines.append((f"cauchy_batch_32[{j}]", "x",
                      digest(solve.result.x.astype("<f8").tobytes())))
    return lines


def digest_lines(vp, checkout):
    """The tool's output lines for the package ``vp``, solving the presets
    of ``checkout``."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted((Path(checkout) / "presets").glob("*.yaml")):
            for key, value in preset_lines(vp, preset, Path(tmp)):
                lines.append(f"{preset.stem:24s} {key:15s} {value}")
        for name, key, value in batch_lines(vp, Path(tmp)):
            lines.append(f"{name:24s} {key:15s} {value}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="checkout to compare with: print only differing lines")
    args = parser.parse_args(argv)
    lines = digest_lines(run.load_vmprox(), ROOT)
    if args.against is None:
        print("\n".join(lines))
        return 0
    other = digest_lines(load_package("vmprox_against", args.against), args.against)
    differ = [(theirs, ours) for theirs, ours
              in zip_longest(other, lines, fillvalue="(no line)") if theirs != ours]
    for theirs, ours in differ:
        print(f"- {theirs}\n+ {ours}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

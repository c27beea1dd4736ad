"""The in-process tools of ``tools/`` against this checkout.

Both tools run the benchmark's own workload classes from ``vmbench/run.py``,
so a change to those classes that the tools cannot follow fails here.
"""

import importlib
from pathlib import Path

import pytest

import vmprox
import vmprox.cli  # noqa: F401  (the batch lines write through vp.cli)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tools(monkeypatch):
    """``ab_time`` and ``preset_digest``; the environment and ``sys.path``
    they change on import are restored afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return (importlib.import_module("ab_time"),
            importlib.import_module("preset_digest"))


def test_ab_time_of_this_checkout_against_itself_is_bitwise_equal(
        tools, monkeypatch, capsys):
    ab_time, _ = tools
    monkeypatch.setattr(ab_time, "SETUP_ROUNDS", 2)
    code = ab_time.main(["--against", str(ROOT), "--pairs", "2",
                         str(ROOT / "presets" / "toy1d.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "final_f bitwise equal in every solve" in out
    assert "set-up: 2 rounds" in out


def test_preset_digest_batch_lines_cover_every_batch_solve(tools, tmp_path):
    _, preset_digest = tools
    lines = preset_digest.batch_lines(vmprox, tmp_path)
    assert len(lines) == 16
    assert [key for _, key, _ in lines] == ["trace", "x"] * 8
    assert len({value for _, _, value in lines}) == 16

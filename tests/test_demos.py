"""Every script in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "calibrate_and_sweep.py",
        "channel_curves.py",
        "frame_walkthrough.py",
        "heterogeneous_hops.py",
        "relay_round.py",
    ],
)
def test_demo_runs(script, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # anything a demo writes stays in tmp_path
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out

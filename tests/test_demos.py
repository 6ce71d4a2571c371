"""Every demo runs to completion against the current public API."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr

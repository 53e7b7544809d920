"""The benchmark's own self-check, run as a test.

``perfbench/selfcheck.py`` runs every workload at smoke size, with and
without tracing. It fails when the kernel makes more or fewer
``model.gradient`` calls than the workload defines SGD steps, or, where
digests are pinned for the environment, when an output's digest moves off
its pin. So a kernel rewrite that drops steps or changes an output bit
fails here too. It takes about ten seconds.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]


def test_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout

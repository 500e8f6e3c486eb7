"""Helpers for tests of forked children and fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanbreak


def run_child(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    src = str(Path(meanbreak.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

"""The package's import layering, checked in a fresh interpreter.

``repro.sweep`` (bit-row sweeps) sits below ``repro.automata`` and
``repro.core`` (the rewriting construction, which sweeps ``Ad`` with
it), and those sit below ``repro.rpq``.  An upward import — even one
hidden inside a function — would show up here as a loaded module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = (
    "import sys, importlib; importlib.import_module({module!r}); "
    "print(*sorted(m for m in sys.modules if m.startswith({forbidden!r})))"
)


@pytest.mark.parametrize("module", ["repro.sweep", "repro.automata", "repro.core"])
@pytest.mark.parametrize("forbidden", ["repro.rpq", "repro.service"])
def test_lower_layers_never_load_upper_ones(module, forbidden):
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module, forbidden=forbidden)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []

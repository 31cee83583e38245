"""The package's import layering, checked in a fresh interpreter and in
the source.

``repro.sweep`` (bit-row sweeps) sits below ``repro.automata`` and
``repro.core`` (the rewriting construction, which sweeps ``Ad`` with
it), those sit below ``repro.rpq``, and that below ``repro.service``.  An
upward import that runs at import time shows up in the probe as a loaded
module; one hidden inside a function only runs when called, so the
``ast`` walk at the end reads every import statement instead.
"""

import ast
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


# Lowest first; a package may import its own layer and the ones before it.
LAYERS = (("sweep",), ("automata", "core"), ("rpq",), ("service",))


def _imported_modules(path: Path):
    """``(line, absolute dotted name)`` for every import statement in
    ``path`` that can run, at any nesting depth (``if TYPE_CHECKING:``
    bodies are annotations only); for ``from x import a, b`` also the
    ``x.a`` / ``x.b`` a submodule import would bind."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    pending = [ast.parse(path.read_text(encoding="utf-8"))]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            pending += node.orelse
            continue
        pending += ast.iter_child_nodes(node)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            base += node.module.split(".") if node.module else []
            yield node.lineno, ".".join(base)
            for alias in node.names:
                yield node.lineno, ".".join([*base, alias.name])


def test_no_lower_layer_source_imports_a_higher_one():
    """The subprocess probe above only sees imports that *ran*; this reads
    the source, so an upward import inside a function body is caught too."""
    upward = []
    for depth, packages in enumerate(LAYERS[:-1]):
        higher = [f"repro.{name}" for layer in LAYERS[depth + 1 :] for name in layer]
        for package in packages:
            for path in sorted((SRC / "repro" / package).rglob("*.py")):
                upward += [
                    f"{path.relative_to(SRC)}:{line} imports {name}"
                    for line, name in _imported_modules(path)
                    if any(name == top or name.startswith(top + ".") for top in higher)
                ]
    assert upward == []

"""Tier-1 guard for the benchmark suite's patch points.

``benchmarks/suite/tracing.py`` measures the program from outside:
``Tracer.install`` looks every :data:`SPAN_TARGETS` entry up as
``module.__dict__[attr]`` (module-level functions) or
``getattr(module, owner).__dict__[attr]`` (methods, on each named class)
and wraps what it finds.  Renaming, moving or un-defining any of those
callables therefore breaks every traced benchmark run — and the suite's
own smoke test is not part of tier-1.  This test resolves each target
exactly the way ``install`` does, against ``src/repro``, without running
(or modifying) the harness.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "suite" / "tracing.py"


def _span_targets() -> dict[str, tuple]:
    if not TRACING.is_file():
        return {}
    spec = importlib.util.spec_from_file_location("_suite_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


SPAN_TARGETS = _span_targets()


def test_the_suite_declares_its_patch_points():
    if not TRACING.is_file():
        pytest.skip("benchmarks/suite is not part of this checkout")
    # The parametrized test below vanishes silently if the table does.
    assert {"sharded.refresh", "sharded.evaluate_all_sorted"} <= set(SPAN_TARGETS)


@pytest.mark.parametrize("span", sorted(SPAN_TARGETS))
def test_span_target_resolves_the_way_the_tracer_patches_it(span):
    module_name, owners, attr = SPAN_TARGETS[span]
    module = importlib.import_module(module_name)
    if owners is None:
        holders = [module]
    else:
        holders = [
            getattr(module, owner)
            for owner in ((owners,) if isinstance(owners, str) else owners)
        ]
    for holder in holders:
        # ``__dict__``, not ``getattr``: the tracer restores the original
        # into the holder's own namespace, so an inherited or re-exported
        # attribute would not do.
        assert attr in holder.__dict__, f"{span}: {holder!r} does not define {attr!r}"
        original = holder.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            original = original.__func__
        assert callable(original), f"{span}: {holder!r}.{attr} is not callable"

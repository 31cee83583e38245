"""Alias: the *same module object* as :mod:`repro.sweep.kernel`, which now
sits below ``automata/`` — patching either name patches the one kernel."""
import sys

from ..sweep import kernel

sys.modules[__name__] = kernel

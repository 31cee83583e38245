"""Alias: the same module object as :mod:`repro.sweep.csr`."""
import sys

from ..sweep import csr

sys.modules[__name__] = csr

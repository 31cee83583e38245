"""Label-indexed bit-row sweeps, the layer below ``automata/`` and ``rpq/``:
automata compiled against a label domain (:mod:`.table`) and swept over an
edge index on Python-int rows (:mod:`.bigint`) or uint64 block rows
(:mod:`.csr`, :mod:`.kernel`).  The index is a graph for RPQ evaluation,
``Ad`` itself for the ``A'`` edges of the rewriting construction."""

from __future__ import annotations

from .bigint import _seed_all_pairs, _sweep_to_fixpoint
from .kernel import matrix_to_masks, sweep_window
from .table import CompiledAutomaton


def window_masks(
    index, compiled: CompiledAutomaton, lo: int, hi: int, blocks: bool
) -> dict[int, int]:
    """All-pairs product sweep of ``index`` for the sources in ``[lo, hi)``,
    on uint64 block rows (``blocks``; ``index`` is then a
    :class:`~repro.sweep.csr.CSRSnapshot`) or on Python-int rows.

    Returns ``{target_id: mask}`` (nonzero masks only) where bit ``j`` of
    ``mask`` set means ``(lo + j, target)`` is an answer: masks are re-based
    to the window and both row forms return the same shape, so callers
    merge windows without knowing which ran.  Which form pays is the
    caller's call — the edge count for a graph
    (:func:`repro.rpq.engine.resolve_backend`), the state count for ``Ad``
    (:func:`repro.automata.compiled.view_transition_masks`).
    """
    if blocks:
        return matrix_to_masks(sweep_window(index, compiled, lo, hi))
    reached, frontier, answer_masks = _seed_all_pairs(index, compiled, lo, hi)
    _sweep_to_fixpoint(index, compiled, reached, frontier, answer_masks)
    return {
        target_id: mask for target_id, mask in enumerate(answer_masks) if mask
    }

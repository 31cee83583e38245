"""Label-indexed bit-row sweeps, the layer below ``automata/`` and ``rpq/``:
automata compiled against a label domain (:mod:`.table`) and swept over an
edge index on Python-int rows (:mod:`.bigint`) or uint64 block rows
(:mod:`.csr`, :mod:`.kernel`).  The index is a graph for RPQ evaluation,
``Ad`` itself for the ``A'`` edges of the rewriting construction."""

"""The decode contract: answer bits -> id arrays -> node pairs, once each.

``kernel.decode_matrix`` is the only bit decoder (big-int rows reach it
through ``kernel.decode_masks``) and ``GraphDB.pairs_at`` the only bulk
id -> node mapping.  Held here to references that share no code with them:
an unpack-everything transpose for the decoder, the per-pair ``node_at``
comprehension for the mapping.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import RPQ, GraphDB
from repro.rpq import engine as engine_mod
from repro.rpq import kernel as kernel_mod
from repro.rpq.csr import blocks_for

from ..conftest import id_pairs


def reference_decode(matrix, width, lo=0):
    """Every bit of every word unpacked, then sorted as Python tuples."""
    bits = np.unpackbits(
        np.ascontiguousarray(matrix).view(np.uint8), axis=1, bitorder="little"
    )
    rows, columns = np.nonzero(bits)
    return sorted(
        (column + lo, row)
        for row, column in zip(rows.tolist(), columns.tolist())
        if column < width
    )


@st.composite
def answer_matrices(draw):
    """``(matrix, width)``: an ``(n, blocks_for(width))`` uint64 matrix
    whose bits at columns >= ``width`` (the padding of the last block) are
    garbage when ``width % 64 != 0``, as ``decode_matrix`` must discard them."""
    num_rows = draw(st.integers(0, 24))
    width = draw(st.sampled_from((0, 1, 63, 64, 65, 100, 128, 130, 200)))
    num_blocks = blocks_for(width)
    shape = draw(st.sampled_from(("zero", "sparse", "dense", "full_row")))
    matrix = np.zeros((num_rows, num_blocks), dtype=np.uint64)
    if matrix.size and shape != "zero":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if shape == "full_row":
            matrix[rng.integers(num_rows)] = np.uint64(2**64 - 1)
        else:
            count = matrix.size * (16 if shape == "dense" else 1)
            words = rng.integers(0, matrix.size, count)
            bits = np.uint64(1) << rng.integers(0, 64, count).astype(np.uint64)
            np.bitwise_or.at(matrix.reshape(-1), words, bits)
    return matrix, width


class TestDecodeMatrix:
    @settings(max_examples=200, deadline=None)
    @given(drawn=answer_matrices(), lo=st.sampled_from((0, 1, 64, 1000)))
    def test_equals_the_unpack_everything_reference(self, drawn, lo):
        matrix, width = drawn
        sources, targets = kernel_mod.decode_matrix(matrix, width, lo)
        assert sources.dtype == targets.dtype == np.int64
        assert id_pairs((sources, targets)) == reference_decode(matrix, width, lo)

    @settings(max_examples=100, deadline=None)
    @given(drawn=answer_matrices(), data=st.data())
    def test_narrow_live_columns_keep_the_order(self, drawn, data):
        """``all_pairs_ids`` gives columns to an ascending ``live`` array;
        ``live[column]`` of the decode is the decode of the spread matrix."""
        matrix, width = drawn
        live = np.array(
            sorted(data.draw(st.sets(st.integers(0, 999), min_size=width, max_size=width))),
            dtype=np.int64,
        )
        columns, targets = kernel_mod.decode_matrix(matrix, width)
        assert id_pairs((live[columns], targets)) == [
            (int(live[column]), row) for column, row in reference_decode(matrix, width)
        ]

    @settings(max_examples=200, deadline=None)
    @given(drawn=answer_matrices(), lo=st.sampled_from((0, 7, 64)))
    def test_masks_and_matrix_decode_to_equal_arrays(self, drawn, lo):
        """One relation as big-int rows (zero rows and all, ascending
        targets) and as a block matrix: equal arrays, dtype included."""
        matrix, width = drawn
        if width % 64:  # big-int rows carry no padding bits
            matrix[:, -1] &= np.uint64((1 << width % 64) - 1)
        masks = [int.from_bytes(row.tobytes(), "little") for row in matrix]
        from_masks = kernel_mod.decode_masks(enumerate(masks), width, lo)
        from_matrix = kernel_mod.decode_matrix(matrix, width, lo)
        assert [ids.dtype for ids in from_masks] == [ids.dtype for ids in from_matrix]
        assert id_pairs(from_masks) == id_pairs(from_matrix)


NODE_NAMES = {
    "str": st.text(max_size=4),
    "int": st.integers(-5, 50),
    "tuple": st.tuples(st.integers(0, 5), st.text(max_size=2)),
    "mixed": st.one_of(
        st.text(max_size=3), st.integers(0, 9), st.tuples(st.integers(0, 3), st.integers(0, 3))
    ),
}


def _per_pair(db, sources, targets):
    return [(db.node_at(s), db.node_at(t)) for s, t in zip(sources, targets)]


class TestPairsAt:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(NODE_NAMES)))
    def test_equals_the_node_at_comprehension_and_follows_growth(self, data, kind):
        names = st.lists(NODE_NAMES[kind], min_size=1, max_size=12, unique=True)
        db = GraphDB(nodes=data.draw(names))
        for _ in range(2):  # the second round after add_node grew the graph
            ids = st.lists(st.integers(0, db.num_nodes - 1), max_size=30)
            sources = data.draw(ids)
            targets = data.draw(st.lists(st.integers(0, db.num_nodes - 1),
                                         min_size=len(sources), max_size=len(sources)))
            got = db.pairs_at(
                np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)
            )
            expected = _per_pair(db, sources, targets)
            assert got == expected
            # the interned objects themselves, no numpy scalar in their place
            assert all(x is u and y is v for (x, y), (u, v) in zip(got, expected))
            for node in data.draw(names):
                db.add_node(node)

    def test_a_tuple_node_stays_one_scalar(self):
        db = GraphDB(nodes=[(1, 2), (3, 4)])  # a list numpy would read as 2-D
        assert db.node_array().shape == (2,)
        assert db.pairs_at(np.array([1]), np.array([0])) == [((3, 4), (1, 2))]


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from("ab"), st.integers(0, 7)),
        min_size=1,
        max_size=40,
    ),
    expr=st.sampled_from(["a", "a.b", "(a+b)*", "a.(a+b)*.b", "b*.a"]),
)
def test_backends_agree_as_lists_on_tuple_named_graphs(edges, expr):
    db = GraphDB([((x, "n"), label, (y, "n")) for x, label, y in edges])
    compiled = engine_mod.compile_automaton(RPQ(expr).eps_free_nfa(), None, db.domain())
    big = engine_mod.evaluate_all_sorted(db, compiled, backend="bigint")
    assert engine_mod.evaluate_all_sorted(db, compiled, backend="numpy") == big
    assert all(type(x) is tuple and type(y) is tuple for x, y in big)

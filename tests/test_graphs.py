import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falqon.graphs import (
    GenerationError,
    Graph,
    GraphFormatError,
    erdos_renyi,
    format_edge_list,
    load_edge_list,
    max_cut_brute_force,
    parse_edge_list,
    random_regular,
    reference_instance,
    save_edge_list,
)

from oracles import weighted_graphs

#: Edge weights whose text form is easy to get wrong: signed zeros, the
#: omitted unit weight, and subnormals down to the smallest one.
AWKWARD_WEIGHTS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324, sys.float_info.min / 3]),
    st.floats(-3.0, 3.0),
    st.floats(-sys.float_info.min, sys.float_info.min),
)


def test_graph_canonicalizes_edges():
    g = Graph.from_edges(3, [(2, 0), (1, 0, 2.0)])
    assert g.edges == ((0, 1, 2.0), (0, 2, 1.0))


def test_graph_rejects_invalid_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1, float("nan"))])
    with pytest.raises(ValueError):
        Graph(0)
    # a weight that is not a real number is refused, not parsed or met in isfinite
    for make in (lambda: Graph.from_edges(2, [(0, 1, "2")]), lambda: Graph(2, ((0, 1, "2"),)),
                 lambda: Graph.from_edges(2, [(0, 1, None)])):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) weight must be a finite real"):
            make()


def test_graph_rejects_non_integer_nodes():
    with pytest.raises(ValueError):
        Graph(3, ((0, 1.5, 1.0),))
    with pytest.raises(ValueError):
        Graph(2.5)
    with pytest.raises(ValueError):
        Graph(3, ((0, 2.0, 1.0),))
    g = Graph(np.int64(3), ((np.int64(0), np.int32(2), 1.0),))
    assert format_edge_list(g) == format_edge_list(Graph.from_edges(3, [(0, 2)]))


def test_from_edges_refuses_non_integers_instead_of_truncating():
    for n_nodes, edge in ((2.5, (0, 1)), (2, (0, 1.7)), (3, (2.0, 0))):
        with pytest.raises(ValueError, match="is not an integer"):
            Graph.from_edges(n_nodes, [edge])
    g = Graph.from_edges(np.int64(3), [(np.int32(2), np.int64(0))])
    assert g == Graph(3, ((0, 2, 1.0),))
    assert {type(x) for x in (g.n_nodes, *g.edges[0][:2])} == {int}


def test_booleans_are_refused_as_integers():
    # True would format as "nodes True", and (False, True) would digest
    # differently from the equal edge (0, 1)
    for make in (lambda: Graph(True), lambda: Graph(3, ((False, True, 1.0),)),
                 lambda: Graph.from_edges(3, [(0, True)]), lambda: random_regular(8, 3, True),
                 lambda: random_regular(True, 1, 0), lambda: erdos_renyi(True, 0.5, 0)):
        with pytest.raises(ValueError, match="(True|False) is not an integer"):
            make()
    # nor is a boolean read as the real 1.0 or 0.0
    for make in (lambda: Graph.from_edges(2, [(0, 1, True)]), lambda: Graph(2, ((0, 1, False),)),
                 lambda: erdos_renyi(4, True, 0)):
        with pytest.raises(ValueError, match="(True|False)"):
            make()
    assert Graph(np.int64(3), ((np.int8(0), np.uint16(1), 1.0),)) == Graph(3, ((0, 1, 1.0),))


def test_degrees():
    assert Graph.from_edges(4, [(0, 1), (1, 2)]).degrees() == [1, 2, 1, 0]


def test_random_regular_is_regular_and_deterministic():
    g1 = random_regular(8, 3, seed=42)
    g2 = random_regular(8, 3, seed=42)
    assert g1 == g2
    assert g1.degrees() == [3] * 8
    assert len(g1.edges) == 12
    g3 = random_regular(8, 3, seed=43)
    assert g3.degrees() == [3] * 8
    assert g3 != g1


def test_random_regular_complete_graph():
    # the only 3-regular graph on 4 nodes is K4
    g = random_regular(4, 3, seed=0)
    assert len(g.edges) == 6


def test_generators_refuse_a_non_integer_seed():
    for make in (lambda: random_regular(8, 3, 1.5), lambda: erdos_renyi(8, 0.5, 1.5)):
        with pytest.raises(ValueError, match="seed 1.5 is not an integer"):
            make()
    assert random_regular(8, 3, np.int64(42)) == random_regular(8, 3, 42)


def test_generators_refuse_a_seed_outside_64_bits():
    # keys are taken modulo 2^64, so -1 and 2^64 - 1 would draw the same graph
    for seed in (-(2**63) - 1, 2**63, 2**64 - 1):
        for make in (lambda: random_regular(8, 3, seed), lambda: erdos_renyi(8, 0.5, seed)):
            with pytest.raises(ValueError, match=f"seed {seed} is outside"):
                make()
    assert random_regular(8, 3, -(2**63)).degrees() == [3] * 8
    assert random_regular(8, 3, 2**63 - 1).degrees() == [3] * 8


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd n*d
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)  # d >= n
    with pytest.raises(ValueError):
        random_regular(0, 1, seed=0)
    # a non-integer size or degree is refused, not met in range() or list *
    for n, d in ((8.0, 3), (8, 3.0), (8.5, 3), (8, "3")):
        with pytest.raises(ValueError, match="is not an integer"):
            random_regular(n, d, seed=0)
    for n in (4.0, 4.5, "4"):
        with pytest.raises(ValueError, match="node count .* is not an integer"):
            erdos_renyi(n, 0.5, seed=0)
    for p in ("0.5", None, float("nan"), 1.5):
        with pytest.raises(ValueError, match=r"edge probability must be in \[0, 1\], got"):
            erdos_renyi(4, p, seed=0)
    assert erdos_renyi(4, np.float64(0.5), 0) == erdos_renyi(4, 0.5, 0)
    assert random_regular(np.int64(8), np.int8(3), seed=0) == random_regular(8, 3, seed=0)


def test_erdos_renyi_extremes():
    empty = erdos_renyi(6, 0.0, seed=1)
    assert empty.edges == ()
    full = erdos_renyi(6, 1.0, seed=1)
    assert len(full.edges) == 15


def test_erdos_renyi_deterministic():
    g1 = erdos_renyi(8, 0.5, seed=7)
    g2 = erdos_renyi(8, 0.5, seed=7)
    assert g1 == g2
    assert all(0 <= u < v < 8 for u, v, _ in g1.edges)
    with pytest.raises(ValueError):
        erdos_renyi(4, 1.5, seed=0)


def test_parse_minimal():
    g = parse_edge_list("nodes 2\n0 1\n")
    assert g == Graph.from_edges(2, [(0, 1)])


def test_parse_weights_comments_blanks():
    text = "# instance\nnodes 3\n\n0 1 2.5  # heavy edge\n1 2\n"
    g = parse_edge_list(text)
    assert g.edges == ((0, 1, 2.5), (1, 2, 1.0))


def test_parse_self_loop_is_validation_error():
    with pytest.raises(ValueError) as info:
        parse_edge_list("nodes 2\n0 0\n")
    assert not isinstance(info.value, GraphFormatError)


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(GraphFormatError) as info:
        parse_edge_list("nodes 2\n0 one\n")
    assert info.value.line_number == 2
    with pytest.raises(GraphFormatError) as info:
        parse_edge_list("nodes 2\n0 1 2 3\n")
    assert info.value.line_number == 2


def test_parse_missing_or_bad_header():
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 1\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("nodes two\n")


def test_parse_rejects_out_of_range_and_duplicates():
    with pytest.raises(ValueError):
        parse_edge_list("nodes 2\n0 5\n")
    with pytest.raises(ValueError):
        parse_edge_list("nodes 2\n0 1\n1 0\n")


def test_format_parse_round_trip():
    rng = np.random.default_rng(14)
    for seed in range(5):
        g = erdos_renyi(7, 0.4, seed=seed)
        assert parse_edge_list(format_edge_list(g)) == g
    weighted = Graph.from_edges(
        4, [(0, 1, rng.uniform(-2, 2)), (1, 3, 1.0), (2, 3, 1 / 3)]
    )
    assert parse_edge_list(format_edge_list(weighted)) == weighted


@settings(derandomize=True, max_examples=150, deadline=None)
@given(graph=weighted_graphs(max_nodes=7, weights=AWKWARD_WEIGHTS))
def test_format_parse_round_trip_property(graph):
    back = parse_edge_list(format_edge_list(graph))
    assert back == graph
    # bit for bit, so -0.0 stays -0.0 where == would accept 0.0
    assert [(u, v, w.hex()) for u, v, w in back.edges] == \
        [(u, v, w.hex()) for u, v, w in graph.edges]


def test_format_is_canonical_lf():
    text = format_edge_list(Graph.from_edges(2, [(0, 1)]))
    assert text == "nodes 2\n0 1\n"


def test_save_load_round_trip(tmp_path):
    g = random_regular(8, 3, seed=42)
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    assert load_edge_list(path) == g
    # byte-identical rewrite
    first = path.read_bytes()
    save_edge_list(g, path)
    assert path.read_bytes() == first


def test_brute_force_small_instances():
    assert max_cut_brute_force(Graph.from_edges(2, [(0, 1)])) == (1.0, 1)
    value, arg = max_cut_brute_force(
        Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    )
    assert value == 2.0
    assert arg == 1  # smallest of the six optimal partitions
    value, arg = max_cut_brute_force(
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    )
    assert value == 4.0
    assert arg == 5  # alternating partition 0101


def test_brute_force_weighted():
    g = Graph.from_edges(3, [(0, 1, 3.0), (1, 2, 1.0), (0, 2, 1.0)])
    value, arg = max_cut_brute_force(g)
    assert value == 4.0
    assert arg == 1  # separate node 0: cuts 3.0 + 1.0


def test_brute_force_caps_node_count():
    with pytest.raises(ValueError):
        max_cut_brute_force(Graph(21))


def test_reference_instance_pinned():
    g = reference_instance()
    assert g.n_nodes == 8
    assert g.degrees() == [3] * 8
    assert g == random_regular(8, 3, seed=42)
    assert max_cut_brute_force(g)[0] == 10.0

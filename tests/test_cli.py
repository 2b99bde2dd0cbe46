import hashlib
import json
import random

import pytest

from graphhomology import bialgebra, cli, graphs, homotopy, symplectic
from graphhomology.bialgebra import LEAF
from graphhomology.cli import SUITES, main
from graphhomology.exactlinalg import ChainContraction, LinComb, homology_dims
from oracles import check_interchange_unsigned

G_REC = {"n": 3, "edges": [[1, 2], [1, 2], [1, 3], [2, 3]]}
# the worked examples W_EX, D_EX (packaged by shape (3, 3, 2)) and G_EX
W_REC = ["p1 p2 p3", "q1 q2 p4", "q3 q4"]
D_REC = {"shape": [3, 3, 2], "pairs": [[1, 4], [2, 7], [3, 5], [6, 8]]}
WORKED_PAIRS = [[1, 4], [2, 5], [3, 7], [6, 8]]


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_enumerate_min_valence(capsys):
    rc, out = run_cli(["enumerate", "--vertices", "2", "--edges", "3",
                       "--min-valence", "2"], capsys)
    assert rc == 0
    recs = json.loads(out)
    assert recs == [
        {"n": 2, "edges": [[1, 2], [1, 2]]},
        {"n": 2, "edges": [[1, 2], [1, 2], [1, 2]]},
    ]


def test_diff_worked_graph(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", G_REC)
    rc, out = run_cli(["diff", "--input", path], capsys)
    assert rc == 0
    # the two surviving contractions cancel under the re-orientation signs
    assert json.loads(out) == []


def test_diff_lie(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", {"n": 2, "edges": [[1, 2]]})
    rc, out = run_cli(["diff", "--lie", "--input", path], capsys)
    assert rc == 0
    assert json.loads(out) == [{"coeff": "1", "graph": {"n": 1, "edges": []}}]


def test_coproduct_output(tmp_path, capsys):
    h_rec = {"n": 4, "edges": [[1, 2], [1, 2], [3, 4], [3, 4]]}
    path = write_json(tmp_path, "h.json", h_rec)
    rc, out = run_cli(["coproduct", "--input", path], capsys)
    assert rc == 0
    recs = json.loads(out)
    assert {"coeff": "1",
            "left": {"n": 2, "edges": [[1, 2], [1, 2]]},
            "right": {"n": 2, "edges": [[1, 2], [1, 2]]}} in recs
    assert len(recs) == 2


def test_product(tmp_path, capsys):
    payload = {"left": {"n": 2, "edges": [[1, 2], [1, 2]]},
               "right": {"n": 2, "edges": [[1, 2], [1, 2]]}}
    path = write_json(tmp_path, "p.json", payload)
    rc, out = run_cli(["product", "--input", path], capsys)
    assert rc == 0
    assert json.loads(out) == {"n": 4, "edges": [[1, 2], [1, 2], [3, 4], [3, 4]]}


def test_convert_chain_monomial_diagram_graph(tmp_path, capsys):
    mono = {"pairs": [[1, 4], [2, 7], [3, 5], [8, 6]], "shape": [3, 3, 2]}
    path = write_json(tmp_path, "m.json", mono)
    rc, out = run_cli(["convert", "--from", "monomial", "--to", "diagram",
                       "--input", path], capsys)
    assert rc == 0
    recs = json.loads(out)
    assert len(recs) == 1
    assert recs[0]["coeff"] == "-1"  # one reversed pair in the input
    d_path = write_json(tmp_path, "d.json", recs[0]["diagram"])
    rc, out = run_cli(["convert", "--from", "diagram", "--to", "graph",
                       "--input", d_path], capsys)
    assert rc == 0
    assert json.loads(out) == [{"coeff": "1", "graph": G_REC}]


def test_convert_graph_word_round_trip(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", G_REC)
    rc, out = run_cli(["convert", "--from", "graph", "--to", "word",
                       "--input", path], capsys)
    assert rc == 0
    word = json.loads(out)
    w_path = write_json(tmp_path, "w.json", word)
    rc, out = run_cli(["convert", "--from", "word", "--to", "graph",
                       "--input", w_path], capsys)
    assert rc == 0
    assert json.loads(out) == [{"coeff": "1", "graph": G_REC}]


@pytest.mark.parametrize("src, dst, payload, expected", [
    ("word", "monomial", W_REC, [{"coeff": "1", "monomial": {"pairs": WORKED_PAIRS}}]),
    ("diagram", "monomial", D_REC, [{"coeff": "1", "monomial": {"pairs": WORKED_PAIRS}}]),
    ("graph", "diagram", G_REC, {"pairs": WORKED_PAIRS, "shape": [3, 3, 2]}),
    ("monomial", "word", D_REC, ["p1 p2 p3", "q1 q3 p4", "q2 q4"]),
    # repeated generators: both bijections of index 1 give the same graph,
    # and in the second word index 2's couple is reversed
    ("word", "graph", ["p1 p1 p2", "q1 q1 q2"],
     [{"coeff": "2", "graph": {"n": 2, "edges": [[1, 2], [1, 2], [1, 2]]}}]),
    ("word", "graph", ["p1 q2 p1", "q1 p2 q1"],
     [{"coeff": "-2", "graph": {"n": 2, "edges": [[1, 2], [1, 2], [1, 2]]}}]),
    # index 1 occurs twice and index 2's couple is reversed: two monomials,
    # one graph
    ("word", "monomial", ["p1 p1 q2", "q1 q1 p2"],
     [{"coeff": "-1", "monomial": {"pairs": [[1, 4], [2, 5], [3, 6]]}},
      {"coeff": "-1", "monomial": {"pairs": [[1, 5], [2, 4], [3, 6]]}}]),
    ("word", "graph", ["p1 p1 q2", "q1 q1 p2"],
     [{"coeff": "-2", "graph": {"n": 2, "edges": [[1, 2], [1, 2], [1, 2]]}}]),
    # p2 has no q2, so the word has no matching at all, although index 1
    # alone would have 10! of them: it is zero, not refused
    ("word", "monomial", ["p1^10 p2 p2", "q1^10 q3 q3"], []),
    ("word", "graph", ["p1^10 p2 p2", "q1^10 q3 q3"], []),
    # p1 and q1 share factor 1, so no graph is left; that zero is found
    # before index 2's 10! matchings are counted
    ("word", "graph", ["p1 q1 p2^10", "q2^10 p3 q3"], []),
])
def test_convert_route_prints_exact_json(src, dst, payload, expected, tmp_path, capsys):
    path = write_json(tmp_path, "in.json", payload)
    rc, out = run_cli(["convert", "--from", src, "--to", dst, "--input", path], capsys)
    assert rc == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


# each input with the start of the message that refuses it
MALFORMED_INPUTS = [
    (["diff", "--lie"], {"n": -1, "edges": []}, "a graph needs n >= 0 vertices, not -1"),
    (["coproduct"], {"n": -1, "edges": []}, "a graph needs n >= 0 vertices, not -1"),
    (["product"], {"left": {"n": -1, "edges": []}, "right": {"n": 1, "edges": []}},
     "a graph needs n >= 0 vertices, not -1"),
    (["diff"], {"n": 2, "edges": [[1, "2"]]}, "n and edge vertices must be integers, not '2'"),
    (["diff"], {"n": 2.0, "edges": [[1, 2]]}, "n and edge vertices must be integers, not 2.0"),
    (["diff"], {"n": True, "edges": []}, "n and edge vertices must be integers, not True"),
    (["convert", "--from", "word", "--to", "graph"], ["p1 q1", 3],
     "a word is a list of factor strings, not ['p1 q1', 3]"),
    (["convert", "--from", "diagram", "--to", "graph"],
     {"shape": [2], "pairs": [[1, "2"]]}, "shape parts and slots must be integers, not '2'"),
    (["convert", "--from", "diagram", "--to", "monomial"],
     {"shape": ["2"], "pairs": [[1, 2]]}, "shape parts and slots must be integers, not '2'"),
    (["convert", "--from", "monomial", "--to", "diagram"], {"pairs": [["1", 2]]},
     "shape parts and slots must be integers, not '1'"),
    (["convert", "--from", "monomial", "--to", "word"],
     {"shape": [2.5], "pairs": [[1, 2]]}, "shape parts and slots must be integers, not 2.5"),
    (["convert", "--from", "monomial", "--to", "word"],
     {"shape": [2], "pairs": [[0, 1]]}, "pairs [(0, 1)] do not fill 1..2"),
    # records of the wrong shape, not only with the wrong numbers
    (["diff"], {"n": 2, "edges": [5]}, "an edge has the wrong type: 5"),
    (["diff"], [{"coeff": 0.5, "graph": G_REC}], "a coefficient has the wrong type: 0.5"),
    (["coproduct"], [G_REC], "a graph record has the wrong type: [{"),
    (["product"], {"left": 3, "right": 4}, "a graph record has the wrong type: 3"),
    (["convert", "--from", "monomial", "--to", "word"], {"shape": 2, "pairs": [[1, 2]]},
     "a shape has the wrong type: 2"),
    (["convert", "--from", "diagram", "--to", "graph"], {"shape": 2, "pairs": [[1, 2]]},
     "a shape has the wrong type: 2"),
    # a JSON true is not a coefficient, and a falsy shape is not an absent one
    (["diff"], [{"coeff": True, "graph": {"n": 2, "edges": [[1, 2]]}}],
     "a coefficient has the wrong type: True"),
    (["convert", "--from", "monomial", "--to", "diagram"], {"shape": 0, "pairs": [[1, 2]]},
     "a shape has the wrong type: 0"),
    (["convert", "--from", "monomial", "--to", "diagram"],
     {"shape": False, "pairs": [[1, 2]]}, "a shape has the wrong type: False"),
    (["convert", "--from", "monomial", "--to", "diagram"], {"shape": "", "pairs": [[1, 2]]},
     "a shape has the wrong type: ''"),
    # a diagram record needs a shape, so monomial→diagram refuses to write one
    # without it
    (["convert", "--from", "monomial", "--to", "diagram"], {"pairs": [[1, 3], [2, 4]]},
     "monomial→diagram needs a shape"),
    (["convert", "--from", "monomial", "--to", "diagram"],
     {"pairs": [[1, 3], [2, 4]], "shape": None}, "monomial→diagram needs a shape"),
    (["convert", "--from", "monomial", "--to", "diagram"],
     {"pairs": [[1, 3], [2, 4]], "shape": []}, "monomial→diagram needs a shape"),
    # a zero denominator is not a rational
    (["diff"], [{"coeff": "1/0", "graph": G_REC}], "zero denominator in '1/0'"),
    # graph and diagram records are canonical: a pair written high end first
    # is refused, not read with either sign, and an edge must lie on 1..n
    (["diff"], {"n": 2, "edges": [[2, 1]]}, "an edge must be written low end first, not [2, 1]"),
    (["convert", "--from", "diagram", "--to", "graph"],
     {"shape": [2, 2], "pairs": [[3, 1], [2, 4]]},
     "a pair must be written low end first, not [3, 1]"),
    (["diff"], {"n": 2, "edges": [[1, 3]]}, "edge (1, 3) outside vertex range 1..2"),
]


# an input's id is its position, argv<k>-payload<k>, without the long fragment
@pytest.mark.parametrize("argv, payload, fragment", MALFORMED_INPUTS,
                         ids=[f"argv{k}-payload{k}" for k in range(len(MALFORMED_INPUTS))])
def test_malformed_input_is_a_usage_error(argv, payload, fragment, tmp_path, capsys):
    # every refusal is a ValueError, so only its message shows which check
    # refused the input
    path = write_json(tmp_path, "bad.json", payload)
    rc = main(argv + ["--input", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {fragment}")


@pytest.mark.parametrize("argv, payload, message", [
    (["diff"], {"n": 3, "edges": [[1, 2, 3]]}, "an edge must have two ends, not [1, 2, 3]"),
    (["diff"], {"n": 3, "edges": [[1]]}, "an edge must have two ends, not [1]"),
    (["convert", "--from", "diagram", "--to", "graph"],
     {"shape": [2, 2], "pairs": [[1, 3], [2, 4, 5]]}, "a pair must have two ends, not [2, 4, 5]"),
    (["convert", "--from", "monomial", "--to", "word"],
     {"shape": [2], "pairs": [[]]}, "a pair must have two ends, not []"),
    # a null field is refused by the part it names
    (["diff"], {"n": 3, "edges": None}, "edges has the wrong type: None"),
    (["diff"], {"n": None, "edges": [[1, 2]]}, "n and edge vertices must be integers, not None"),
    (["diff"], [{"coeff": None, "graph": G_REC}], "a coefficient has the wrong type: None"),
    (["diff"], [{"coeff": "1", "graph": None}], "a graph record has the wrong type: None"),
    (["convert", "--from", "diagram", "--to", "graph"], {"shape": [2], "pairs": None},
     "pairs has the wrong type: None"),
    (["product"], {"left": None, "right": G_REC}, "a graph record has the wrong type: None"),
    (["product"], {"left": G_REC, "right": None}, "a graph record has the wrong type: None"),
    # listing the generators of p1^(10^12) would exhaust memory
    (["convert", "--from", "word", "--to", "monomial"], ["p1^1000000000000 q1"],
     "the power in 'p1^1000000000000' is above 362880"),
    (["convert", "--from", "word", "--to", "graph"], ["p1^1000000000000 q1"],
     "the power in 'p1^1000000000000' is above 362880"),
    # a missing field is refused by its name
    (["diff"], {"n": 3}, "a graph record has no field 'edges'"),
    (["diff"], {"edges": [[1, 2]]}, "a graph record has no field 'n'"),
    (["diff"], [{"graph": G_REC}], "a term record has no field 'coeff'"),
    (["diff"], [{"coeff": "1"}], "a term record has no field 'graph'"),
    (["convert", "--from", "diagram", "--to", "graph"], {"shape": [2]},
     "a diagram record has no field 'pairs'"),
    (["product"], {"right": G_REC}, "a product record has no field 'left'"),
    (["product"], {"left": G_REC}, "a product record has no field 'right'"),
    # 40 components would split over 2^39 subsets
    (["coproduct"], {"n": 40, "edges": []},
     "the coproduct splits a graph of 40 components; at most 16 components are supported"),
])
def test_wrong_length_edge_or_pair_is_refused_by_name(argv, payload, message, tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", payload)
    rc = main(argv + ["--input", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_convert_no_route(tmp_path, capsys):
    path = write_json(tmp_path, "g.json", G_REC)
    rc = main(["convert", "--from", "graph", "--to", "monomial",
               "--input", path])
    assert rc == 2


def test_homology_polygons(capsys):
    rc, out = run_cli(["homology", "--polygons", "--max-n", "5"], capsys)
    assert rc == 0
    dims = json.loads(out)
    for k, entry in dims.items():
        if entry["reliable"]:
            assert entry["dim"] == 0
    assert main(["homology", "--polygons", "--max-n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: need max_n >= 3\n"


def test_homology_needs_loop_or_polygons(capsys):
    rc = main(["homology", "--max-n", "4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "usage error: homology needs --loop L or --polygons\n"


@pytest.mark.parametrize("argv", [
    ["homology", "--max-n", "4", "--edges", "6"],
    ["enumerate", "--suite", "d2"],
])
def test_command_refuses_an_option_it_does_not_read(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_homology_loop_prints_core_stripe(capsys):
    for loop in (1, 2):
        rc, out = run_cli(["homology", "--loop", str(loop)], capsys)
        assert rc == 0
        dims = homology_dims(homotopy.stripe("core", loop, 5))
        assert json.loads(out) == {str(k): {"dim": dim, "reliable": reliable}
                                   for k, (dim, reliable) in dims.items()}
        assert dims[2 * loop][1]
    assert main(["homology", "--loop", "1", "--polygons"]) == 2
    assert main(["homology", "--loop", "-1"]) == 2


def test_homology_refuses_an_oversized_stripe(capsys, monkeypatch):
    # the core stripe at loop 4 has 168,840 graphs at n = 8
    def assemble(*args, **kwargs):
        raise AssertionError("a differential was assembled")

    monkeypatch.setattr(homotopy, "slice_from_bases", assemble)
    rc = main(["homology", "--loop", "4", "--max-n", "8"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("usage error: the core stripe at loop 4 has more than "
                            "150000 graphs in degree 8\n")


@pytest.mark.parametrize("stage", ["monomial", "graph"])
def test_convert_refuses_a_word_with_too_many_matchings(stage, tmp_path, capsys, monkeypatch):
    # p1^10 | q1^10 has 10! matchings, more than symplectic.WORD_MAX_MATCHINGS
    def enumerate_matchings(*args, **kwargs):
        raise AssertionError("a matching was listed")

    monkeypatch.setattr(symplectic, "_bijections", enumerate_matchings)
    path = write_json(tmp_path, "w.json", ["p1^10", "q1^10"])
    rc = main(["convert", "--from", "word", "--to", stage, "--input", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("usage error: the word has 3628800 matchings of its p_i "
                            "with its q_i, more than 362880\n")


def test_enumerate_refuses_negative_vertices(capsys):
    rc = main(["enumerate", "--vertices", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


@pytest.mark.parametrize("argv,edges", [
    (["enumerate", "--vertices", "2", "--edges", "1000"], 1000),
    (["homology", "--loop", "1000", "--max-n", "2"], 1002),
])
def test_walk_of_too_many_edges_is_a_usage_error(argv, edges, capsys):
    # one generator per edge would exhaust the recursion limit
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"usage error: the graph walk takes at most 500 edges, not {edges}\n"


def test_diff_lie_refuses_thirteen_vertices(tmp_path, capsys):
    path = write_json(tmp_path, "g.json",
                      {"n": 13, "edges": [[k, k + 1] for k in range(1, 13)]})
    rc = main(["diff", "--lie", "--input", path])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_verify_d2_passes(capsys):
    rc, out = run_cli(["verify", "--suite", "d2", "--vertices", "4",
                       "--edges", "5"], capsys)
    assert rc == 0
    assert "seed=0" in out.splitlines()[0]
    assert out.strip().endswith("items pass")


@pytest.mark.parametrize("argv", [
    ["--suite", "d2", "--vertices", "-1"],
    ["--suite", "contraction", "--vertices", "0"],
    ["--suite", "series", "--degree", "-1"],
])
def test_verify_refuses_a_negative_bound_or_no_items(argv, capsys):
    rc = main(["verify"] + argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


# blake2b (16-byte) digests of each suite's stdout at its defaults, which
# pin the bytes every refactor must keep
SUITE_DIGESTS = {
    "d2": "7527f02b2d1a4529f294caf51696b291",
    "contraction": "01f9fe128dd62b6d901c127222e7044e",
    "bialgebra": "58325002d0315daed84db4a139d110d3",
    "series": "d94428edb1d494fc927d35b44d1f809d",
    "interchange": "bd4c52399c5bcf643ffb781dda6e22fe",
    "commute": "9020bcb6476b27a7c10f60bf2c9c5d1b",
    "lie-diagram": "28e3354eab2519d5cb3f87896f313596",
}


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes_at_its_defaults(suite, capsys):
    rc, out = run_cli(["verify", "--suite", suite], capsys)
    assert rc == 0, out
    assert out.strip().endswith("items pass")
    assert hashlib.blake2b(out.encode(), digest_size=16).hexdigest() == SUITE_DIGESTS[suite]


@pytest.mark.parametrize("degree", ["0", "1"])
def test_verify_series_at_the_truncation_edge(degree, capsys):
    rc, out = run_cli(["verify", "--suite", "series", "--degree", degree], capsys)
    assert rc == 0
    assert out.splitlines()[1:] == ["OK   f∘g = t", "OK   g∘f = t", "all 2 items pass"]


@pytest.mark.parametrize("wrong, terms", [
    (LinComb.of(LEAF, 2), 1),
    # a leaf and a product tree do not compare, yet the defect has a smallest term
    (LinComb.of(LEAF, 2) + LinComb.of((LEAF, LEAF)), 2),
])
def test_verify_series_fail_lines_give_defect_size(wrong, terms, capsys, monkeypatch):
    # against a wrong identity t + x, f∘g - (t + x) = g∘f - (t + x) = -x
    monkeypatch.setattr(bialgebra, "identity_series", lambda degree: wrong)
    rc, out = run_cli(["verify", "--suite", "series"], capsys)
    assert rc == 1
    assert out.splitlines()[1:] == [
        f"FAIL f∘g = t defect terms={terms} smallest=-1*'t'",
        f"FAIL g∘f = t defect terms={terms} smallest=-1*'t'",
        "2 of 2 items fail"]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--vertices", "8", "--edges", "12"],
    ["verify", "--suite", "series", "--degree", "17"],
])
def test_an_oversized_listing_or_degree_is_a_usage_error(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


@pytest.mark.parametrize("suite", ["d2", "commute", "lie-diagram"])
def test_verify_refuses_an_oversized_listing_before_any_check(suite, capsys, monkeypatch):
    # the listings with n <= 4 fit; the one at n = 5 passes ENUMERATE_MAX_GRAPHS
    def differential(*args, **kwargs):
        raise AssertionError("a graph was checked")

    monkeypatch.setattr(graphs, "differential", differential)
    rc = main(["verify", "--suite", suite, "--vertices", "9", "--edges", "12"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("usage error: enumerate_graphs lists more than 300000 graphs "
                            "on 5 vertices with at most 12 edges\n")


def test_verify_contraction_passes(capsys):
    # one item per (loop, degree) of the mixed graphs with n <= 4, e <= 6
    rc, out = run_cli(["verify", "--suite", "contraction"], capsys)
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "suite=contraction seed=0 vertices<=4 edges<=6"
    assert lines[1:-1] == [f"OK   loop {loop} degree {k} b=0"
                           for loop, top in ((1, 4), (2, 4), (3, 3), (4, 2))
                           for k in range(2, top + 1)]
    assert lines[-1] == "all 9 items pass"


def test_verify_contraction_reaches_the_nonzero_class(capsys):
    # at loop 2, degree 5 the labelled mixed stripe has b5 = 4, so π is not
    # zero there, and it must still be a projection of rank b onto cycles
    rc, out = run_cli(["verify", "--suite", "contraction", "--vertices", "5",
                       "--edges", "7"], capsys)
    lines = out.splitlines()
    assert rc == 0
    assert "OK   loop 2 degree 5 b=4" in lines
    assert lines[-1] == "all 14 items pass"


def test_verify_fail_lines_give_defect_size(capsys, monkeypatch):
    # with h = 0, π = Id: π² = π and rank π = b still hold, but dπ = d and
    # πd = d, so an item fails exactly where a differential at it is nonzero
    monkeypatch.setattr(cli, "chain_contraction",
                        lambda cx: ChainContraction(cx, {}, {}))
    rc, out = run_cli(["verify", "--suite", "contraction", "--vertices", "4",
                       "--edges", "5"], capsys)
    expected = []
    for loop in range(1, 4):
        top = min(4, 5 - loop)
        cx = homotopy.stripe("mixed", loop, top + 1)
        for k in range(2, top + 1):
            terms = [(("dπ", r, c), v) for (r, c), v in cx.d[k].entries]
            terms += [(("πd", r, c), v) for (r, c), v in cx.d[k + 1].entries]
            if terms:
                key, coeff = min(terms)
                expected.append(f"FAIL loop {loop} degree {k} b={len(cx.basis[k])} defect "
                                f"terms={len(terms)} smallest={coeff}*{key!r}")
    lines = out.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    assert rc == 1
    assert fails == sorted(expected)
    assert fails == [
        "FAIL loop 1 degree 3 b=6 defect terms=52 smallest=-1*('πd', 0, 0)",
        "FAIL loop 1 degree 4 b=42 defect terms=640 smallest=-1*('dπ', 0, 0)",
        "FAIL loop 2 degree 3 b=9 defect terms=140 smallest=-1*('πd', 0, 0)",
    ]
    assert lines[-1] == "3 of 6 items fail"


def test_verify_interchange_passes(capsys):
    # the interchange law holds with graded shuffle signs on every split
    rc, out = run_cli(["verify", "--suite", "interchange"], capsys)
    assert rc == 0
    assert out.strip().endswith("items pass")


def test_verify_interchange_fail_lines_give_defect_size(capsys, monkeypatch):
    # the unsigned law fails on some splits; each FAIL line gives the size
    # of its defect and the smallest term
    monkeypatch.setattr(bialgebra, "check_interchange", check_interchange_unsigned)
    rc, out = run_cli(["verify", "--suite", "interchange"], capsys)
    rng = random.Random(0)
    expected = []
    for case in range(20):
        w = symplectic.random_split_word(rng)
        for p in range(len(w.factors)):
            q = len(w.factors) - 1 - p
            defect = check_interchange_unsigned(w, p, q)
            if not defect.is_zero():
                key, coeff = min(defect.items(), key=lambda kv: kv[0])
                expected.append(f"FAIL word {case} split ({p},{q}) defect "
                                f"terms={len(defect)} smallest={coeff}*{key!r}")
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
    assert rc == 1 and expected
    assert fails == sorted(expected)


def test_verify_commute_passes(capsys):
    rc, out = run_cli(["verify", "--suite", "commute", "--vertices", "3",
                       "--edges", "5"], capsys)
    assert rc == 0


def test_verify_lie_diagram_passes(capsys):
    rc, out = run_cli(["verify", "--suite", "lie-diagram", "--vertices", "3",
                       "--edges", "4"], capsys)
    assert rc == 0


def test_deterministic_output(tmp_path, capsys):
    args = ["verify", "--suite", "bialgebra", "--seed", "0"]
    rc1, out1 = run_cli(args, capsys)
    rc2, out2 = run_cli(args, capsys)
    assert (rc1, out1) == (rc2, out2)


def test_usage_error_exit_code(tmp_path):
    assert main(["diff"]) == 2  # missing --input
    assert main(["verify", "--suite", "nope"]) == 2
    assert main(["wrongcommand"]) == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc = main(["enumerate", "--vertices", "1", "--edges", "0",
               "--output", str(target)])
    assert rc == 0
    assert json.loads(target.read_text()) == [{"n": 1, "edges": []}]

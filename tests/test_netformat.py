import re

import numpy as np
import pytest

from bnmarg.errors import (
    ArgumentError,
    CptLengthError,
    CptRowSumError,
    CptValueError,
    DataFormatError,
    DuplicateParentError,
    DuplicateStateError,
    DuplicateVariableError,
    EmptyDocumentError,
    NetworkCycleError,
    NetworkSyntaxError,
    NumberFormatError,
    StateCountError,
    UnresolvedParentError,
)
from bnmarg.graphs import Dag
from bnmarg.netformat import (
    _tokenized_lines,
    parse_dataset,
    parse_network,
    serialize_dataset,
    serialize_network,
)

from bnmarg.network import CategoricalBN

from conftest import brute_marginal, rand_bn


MINIMAL = """
# one root variable
variable A
  states off on
  cpt 0.4 0.6
"""

SPRINKLER = """
variable Rain
  states no yes
  cpt 0.8 0.2
variable Sprinkler
  states no yes
  parents Rain
  cpt 0.6 0.4
  cpt 0.99 0.01
variable Wet
  states no yes
  parents Sprinkler Rain
  cpt 1.0 0.0
  cpt 0.2 0.8
  cpt 0.1 0.9
  cpt 0.01 0.99
"""


def test_minimal_file():
    bn = parse_network(MINIMAL)
    assert bn.node_ids == ("A",)
    assert bn.state_names["A"] == ("off", "on")
    assert np.allclose(bn.cpts["A"], [[0.4, 0.6]])


def test_row_major_order_and_forward_parents():
    text = """
variable Child
  states a b
  parents P Q
  cpt 0.1 0.9
  cpt 0.2 0.8
  cpt 0.3 0.7
  cpt 0.4 0.6
variable P
  states a b
  cpt 0.5 0.5
variable Q
  states a b
  cpt 0.5 0.5
"""
    bn = parse_network(text)
    # declared parent order (P, Q), Q varying fastest
    assert bn.dag.parents("Child") == ("P", "Q")
    row = bn.row_index("Child", {"P": 1, "Q": 0})
    assert np.allclose(bn.cpts["Child"][row], [0.3, 0.7])


def test_sprinkler_semantics():
    bn = parse_network(SPRINKLER)
    # P(Wet = yes) by direct summation
    got = brute_marginal(bn, {"Wet": 1})
    assert got == pytest.approx(0.44838)


def test_comments_and_whitespace_are_free():
    text = "variable A # trailing comment\n\n  states x y#also\n\tcpt 0.5   0.5\n"
    bn = parse_network(text)
    assert bn.state_names["A"] == ("x", "y")


def test_token_columns_match_the_whitespace_regex():
    # error positions come from these columns: every kind of in-line
    # whitespace, repeated tokens and a token inside an earlier one must give
    # what scanning each line for the regex \S+ gives
    text = (
        "variable\u00a0A  # note\n\tstates xy\u3000x\u2003y x\n cpt 0.5 0.5#0.5\n\n#only\n"
        "  \x1f \x0bparents\tA\u2028 cpt\u00a0\u00a01  0.5 1\r\nvariable B"
    )
    want = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = [(ln, m.start() + 1, m.group()) for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if toks:
            want.append(toks)
    assert len(want) == 6
    assert list(_tokenized_lines(text)) == want


def test_near_normalized_rows_are_renormalized():
    text = "variable A\n states x y\n cpt 0.4000004 0.6\n"
    bn = parse_network(text)
    assert float(bn.cpts["A"].sum()) == pytest.approx(1.0, abs=1e-15)


def test_serialization_is_canonical_fixed_point():
    rng = np.random.default_rng(5)
    for _ in range(20):
        bn = rand_bn(rng, int(rng.integers(2, 9)), 0.4)
        text = serialize_network(bn)
        again = parse_network(text)
        assert serialize_network(again) == text
        # semantics survive: same marginals on a spot check
        e = {bn.node_ids[0]: 0}
        assert brute_marginal(again, e) == pytest.approx(brute_marginal(bn, e), rel=1e-12)


def test_serialization_sorts_variables_and_parents():
    bn = parse_network(SPRINKLER)
    text = serialize_network(bn)
    names = [l.split()[1] for l in text.splitlines() if l.startswith("variable")]
    assert names == sorted(names)
    # Wet's parents listed sorted, with rows permuted to match
    again = parse_network(text)
    assert again.dag.parents("Wet") == ("Rain", "Sprinkler")
    for wet in (0, 1):
        for r in (0, 1):
            for s in (0, 1):
                assert brute_marginal(again, {"Wet": wet, "Rain": r, "Sprinkler": s}) == (
                    pytest.approx(brute_marginal(bn, {"Wet": wet, "Rain": r, "Sprinkler": s}), rel=1e-12)
                )


def _two_node(a, b, states=None):
    return CategoricalBN(
        Dag((a, b), [(a, b)]),
        {a: 2, b: 2},
        {a: np.array([[0.25, 0.75]]), b: np.array([[0.5, 0.5], [0.125, 0.875]])},
        states,
    )


def test_serialization_refuses_names_the_parser_rejects():
    # each of these would write a file that parse_network refuses or reads
    # differently; the refusal comes before any text is produced
    refused = [
        _two_node(1, 2),  # not strings
        _two_node("A", ("B", 0)),
        _two_node("my var", "B"),
        _two_node("A", "cpt"),  # a keyword
        _two_node("A", "B\n"),  # the pattern's $ alone would let a trailing newline through
        _two_node("2A", "B"),
        _two_node("A", "B", {"A": ("a b", "c")}),  # would come back as three states
        _two_node("A", "B", {"B": ("x", "states")}),
        _two_node("A", "B", {"B": ("x", "y#z")}),
        _two_node("A", "B", {"A": ("", "c")}),
    ]
    for bn in refused:
        with pytest.raises(ArgumentError, match="cannot be written"):
            serialize_network(bn)
    # the names both patterns allow round-trip
    bn = _two_node("a.b+c-d_1", "_B", {"a.b+c-d_1": ("0", "x.y+z-w"), "_B": ("_", "9")})
    text = serialize_network(bn)
    assert serialize_network(parse_network(text)) == text
    assert parse_network(text).state_names == bn.state_names


def _expect(text, exc):
    with pytest.raises(exc) as info:
        parse_network(text)
    return info.value


def test_error_catalog():
    assert isinstance(_expect("", EmptyDocumentError).line, int)
    assert _expect("states x y\n", NetworkSyntaxError).line == 1
    _expect("variable A\n parents B\n states x y\n cpt 1.0\n", NetworkSyntaxError)
    _expect("variable A\n states x y\n cpt 0.5 0.5\nvariable A\n states x y\n cpt 0.5 0.5\n", DuplicateVariableError)
    _expect("variable A\n states x x\n cpt 0.5 0.5\n", DuplicateStateError)
    _expect("variable A\n states onlyone\n cpt 1.0\n", StateCountError)
    _expect("variable A\n states x y\n parents Ghost\n cpt 0.5 0.5\n cpt 0.5 0.5\n", UnresolvedParentError)
    _expect(
        "variable A\n states x y\n parents B B\n cpt 0.5 0.5\n cpt 0.5 0.5\n"
        "variable B\n states x y\n cpt 0.5 0.5\n",
        DuplicateParentError,
    )
    _expect("variable A\n states x y\n cpt 0.5 0.5 0.5\n", CptLengthError)
    _expect("variable A\n states x y\n cpt 0.5\n", CptLengthError)
    _expect("variable A\n states x y\n cpt 1.5 -0.5\n", CptValueError)
    _expect("variable A\n states x y\n cpt 0.7 0.7\n", CptRowSumError)
    _expect("variable A\n states x y\n cpt 0.5 half\n", NumberFormatError)
    cyc = _expect(
        "variable A\n states x y\n parents B\n cpt 0.5 0.5\n cpt 0.5 0.5\n"
        "variable B\n states x y\n parents A\n cpt 0.5 0.5\n cpt 0.5 0.5\n",
        NetworkCycleError,
    )
    assert "A" in str(cyc) and "B" in str(cyc)


def test_uncompletable_row_is_rejected():
    # total within tolerance, but the leading states alone exceed one, so no
    # exact distribution keeps them fixed
    err = _expect("variable A\n states x y z\n cpt 0.6 0.4000004 0.0\n", CptRowSumError)
    assert "completed" in str(err)


def test_error_positions_point_at_the_defect():
    err = _expect("variable A\n states x y\n cpt 0.5 oops\n", NumberFormatError)
    assert err.line == 3
    err = _expect("variable A\n states x y\n cpt 0.9 0.3\n", CptRowSumError)
    assert err.line == 3


def test_dataset_round_trip_and_records():
    text = serialize_dataset(("a", "b", "label"), [("x", "?", "pos"), ("y", "z", "neg")])
    ds = parse_dataset(text)
    assert ds.columns == ("a", "b", "label")
    assert ds.column("label") == ["pos", "neg"]
    recs = ds.records(exclude=("label",))
    assert recs[0].observed == {"a": "x"}
    assert recs[0].missing == frozenset({"b"})
    assert recs[1].observed == {"a": "y", "b": "z"}
    assert serialize_dataset(ds.columns, ds.cells) == text


def test_dataset_errors():
    with pytest.raises(DataFormatError):
        parse_dataset("")
    with pytest.raises(DataFormatError):
        parse_dataset("a,a\nx,y\n")
    with pytest.raises(DataFormatError):
        parse_dataset("a,b\nx\n")
    with pytest.raises(DataFormatError):
        parse_dataset("a,b\nx,y\n").column("zzz")

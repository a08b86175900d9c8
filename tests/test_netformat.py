import hashlib
import random
import re

import numpy as np
import pytest

from bnmarg.errors import (
    ArgumentError,
    BnmargError,
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
    _columns,
    parse_dataset,
    parse_network,
    serialize_dataset,
    serialize_network,
)

from bnmarg.network import CategoricalBN
from bnmarg.randnet import GenSpec, gen_network

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
    # error positions come from the columns _columns gives for each line's
    # comment-free text: every kind of in-line whitespace, repeated tokens
    # and a token inside an earlier one must give what scanning each line
    # for the regex \S+ gives
    text = (
        "variable\u00a0A  # note\n\tstates xy\u3000x\u2003y x\n cpt 0.5 0.5#0.5\n\n#only\n"
        "  \x1f \x0bparents\tA\u2028 cpt\u00a0\u00a01  0.5 1\r\nvariable B"
    )
    want = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = [(ln, m.start() + 1, m.group()) for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if toks:
            want.append(toks)
    got = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        if body.split():
            got.append([(ln, col, w) for col, w in zip(_columns(body), body.split())])
    assert len(want) == 6
    assert got == want


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


def test_serialization_refuses_rows_the_parser_rejects():
    # the parser refuses each row with this class, so the serializer does
    # too, before producing any text; completing 0.3 0.3 as 0.3 0.7 would
    # write another table
    for row, exc in (
        ([-0.5, 1.5], CptValueError),
        ([np.nan, np.nan], CptValueError),
        ([0.3, 0.3], CptRowSumError),
        ([0.6, 0.4000004, 0.0], CptRowSumError),  # sums to one within the tolerance, cannot be completed
    ):
        one = CategoricalBN(Dag(("A",)), {"A": len(row)}, {"A": np.array([row])})
        with pytest.raises(exc, match="does not accept"):
            serialize_network(one)
        states = " ".join("xyz"[: len(row)])
        _expect(f"variable A\n states {states}\n cpt " + " ".join(map(repr, row)) + "\n", exc)
    # rows are counted as written: B's parents sorted, (A, C) not (C, A)
    bn = CategoricalBN(
        Dag(("C", "A", "B"), [("C", "B"), ("A", "B")]),
        {"A": 2, "B": 2, "C": 2},
        {
            "A": np.array([[0.5, 0.5]]),
            "C": np.array([[0.5, 0.5]]),
            "B": np.array([[0.5, 0.5], [0.3, 0.3], [0.5, 0.5], [0.5, 0.5]]),
        },
    )
    with pytest.raises(CptRowSumError, match="row 2 of 'B' sums to 0.6"):
        serialize_network(bn)


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


# hand-made documents for the parser pin: comments, tabs, Unicode
# whitespace and CRLF, parents declared later and out of node order,
# mixed cardinalities, and rows within the tolerance of one
HAND_MADE = [
    MINIMAL,
    SPRINKLER,
    "variable A # trailing comment\r\n\r\n  states x y#also\r\n\tcpt 0.5  0.5\r\n"
    "variable　B\n\x0bstates\tp q r\n parents A\n cpt 0.2 0.3 0.5 #\n cpt 1 0 0\n",
    "variable C\n states a b c d\n parents B A\n"
    + "".join(f" cpt 0.1 0.2 0.3 0.{4 + k % 2}000001\n" for k in range(6))
    + "variable A\n states x y\n cpt 0.4000004 0.6\n"
    "variable B\n states p q r\n parents A\n cpt 0.3333333 0.3333333 0.3333334\n"
    " cpt 0.25 0.25 0.5000009\n"
    "variable D\n states u v w x y\n parents C\n"
    + "".join(f" cpt 0.2 0.2 0.2 0.2 0.{2 - k % 2}\n" for k in range(4)),
    "variable Z\n states z0 z1\n parents Y X\n cpt 0.5 0.5\n cpt 0.5 0.5\n cpt 0.5 0.5 cpt\n"
    "variable Y\n states y0 y1 y2\n cpt 1e-7 0.4999999 0.5\n"
    "variable X\n states x0 x1\n parents Y\n cpt 0.99999999 1e-8\n cpt 0 1\n cpt 1 0\n",
]

_SEPARATORS = ("\t", " ", "　", "  ", "\x0b", "\x1f", " \r\n ", " ", "\x85")
_WORDS = (
    "variable", "states", "parents", "cpt", "0", "1", "0.5", "1.5", "-0.25", "nan",
    "inf", "1e-7", "half", "x", "y", "Z9", "#", "2A", "1_0", "0x1",
)
_NUDGES = (1e-7, -1e-7, 4e-7, 2e-6, -0.3, 0.25, 1.0)


def _mutate(text: str, r) -> str:
    """One seeded edit of a network document; ``r`` is a ``random.Random``,
    read only through ``random()``, whose sequence Python keeps stable."""

    def pick(seq):
        return seq[int(r.random() * len(seq))]

    lines = text.split("\n")
    full = [i for i, line in enumerate(lines) if line.split()]
    if not full:
        return text
    i = pick(full)
    parts = re.split(r"(\s+)", lines[i])
    words = [k for k, p in enumerate(parts) if p and not p.isspace()]
    j = pick(words)
    names = sorted({ln.split()[1] for ln in lines if len(ln.split()) > 1 and ln.split()[0] == "variable"})
    kind = int(r.random() * 13)
    if kind == 0:
        parts[j] = ""
    elif kind == 1:
        parts[j] = pick(_WORDS + tuple(names))
    elif kind == 2:
        parts[j] = parts[j] + " " + parts[j]
    elif kind == 3:
        k = pick(words)
        parts[j], parts[k] = parts[k], parts[j]
    elif kind == 4:
        try:
            parts[j] = repr(float(parts[j]) + pick(_NUDGES))
        except ValueError:
            parts[j] = parts[j][:-1] or "0"
    elif kind == 5:
        seps = [k for k, p in enumerate(parts) if p.isspace()] or [0]
        parts[pick(seps)] = pick(_SEPARATORS)
    elif kind == 6:
        parts[j] = pick(names) if parts[j] in names else parts[j] + pick(("#", "x", "."))
    elif kind == 7:
        col = int(r.random() * (len(lines[i]) + 1))
        lines[i] = lines[i][:col] + "#" + lines[i][col:]
        return "\n".join(lines)
    elif kind == 8:
        del lines[i]
        return "\n".join(lines)
    elif kind == 9:
        lines.insert(pick(full), lines[i])
        return "\n".join(lines)
    elif kind == 10:
        k = pick(full)
        lines[i], lines[k] = lines[k], lines[i]
        return "\n".join(lines)
    elif kind == 11:
        # move one variable block to the front or the end of the document
        starts = [k for k in full if lines[k].split()[0] == "variable"] + [len(lines)]
        if len(starts) > 2:
            b = int(r.random() * (len(starts) - 1))
            block = lines[starts[b] : starts[b + 1]]
            rest = lines[: starts[b]] + lines[starts[b + 1] :]
            lines = block + rest if r.random() < 0.5 else rest + block
        return "\n".join(lines)
    else:
        lines[i] = lines[i] + pick(("\r", " # note", "\t", " 0.5", " x"))
        return "\n".join(lines)
    lines[i] = "".join(parts)
    return "\n".join(lines)


def _outcome(text: str) -> bytes:
    """What parsing ``text`` gives: the network's node ids, state names,
    parents and CPT bytes, or the error's class, message, line and column."""
    try:
        bn = parse_network(text)
    except BnmargError as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None))).encode()
    parts = [repr([(v, bn.state_names[v], bn.dag.parents(v)) for v in bn.node_ids]).encode()]
    parts += [bn.cpts[v].tobytes() for v in bn.node_ids]
    return b"|".join(parts)


def _pin_documents():
    for family in ("er", "ba", "ws", "islands"):
        for c in (2, 3):
            for seed in (1, 2):
                n = 6 + (seed * 3 + c) % 5
                kwargs = {"islands": 2} if family == "islands" else {}
                yield serialize_network(gen_network(GenSpec(family, n, 2.2, categories=c, seed=seed, **kwargs)))
    yield from HAND_MADE


def test_parser_outcomes_are_pinned():
    # 16 generated and 5 hand-made documents, each as it is and in 180
    # seeded mutants: 162 single edits, and two or three edits in the rest,
    # so that defects also compete.  One digest covers every parsed network
    # and every error with its position.
    digest = hashlib.sha256()
    kinds = set()
    for d, text in enumerate(_pin_documents()):
        r = random.Random(7001 + d)
        for m in range(181):
            mutant = text
            for _ in range(0 if m == 0 else 1 + (m % 10 == 0) + (m % 30 == 0)):
                mutant = _mutate(mutant, r)
            out = _outcome(mutant)
            kinds.add(out.split(b"'")[1] if out.startswith(b"(") else b"network")
            digest.update(out)
            digest.update(b"\n")
    assert len(kinds) >= 12, kinds
    assert digest.hexdigest() == "2a784d1981846a08a44ac025bccdea94a21af9ca0c613cb6accb2df10e09e1a1"


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

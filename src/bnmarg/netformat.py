"""Text formats: the network file format and the dataset CSV.

Network files are a small line-oriented format owned by this project::

    # comment
    variable Rain
      states no yes
      parents Cloudy Season
      cpt 0.9 0.1
      cpt 0.4 0.6
      cpt 0.7 0.3
      cpt 0.2 0.8

Tokens are whitespace separated; ``#`` starts a comment.  A variable block is
``variable NAME``, one ``states`` line (two or more state names), an optional
``parents`` line, and one or more ``cpt`` lines whose numbers concatenate to
the table in row-major order: one row per parent configuration, parent
configurations enumerated mixed-radix with parents in declared order and the
last declared parent varying fastest, columns in state order.  Parents may be
declared later in the file.  Rows must sum to 1 within 1e-6; after the check
the final state absorbs the rounding slack (its probability is rewritten as
one minus the rest), so parsed rows are exactly normalized and the rewrite is
idempotent.

Serialization is canonical: variables sorted by name, parents listed sorted
by name (rows permuted accordingly), floats rendered shortest-roundtrip.
serialize -> parse -> serialize is a byte-identical fixed point.

Datasets are plain CSV: a header of variable names, then one row per record
with state names as cells and ``?`` for missing values.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .classify import PartialRecord
from .errors import (
    ArgumentError,
    CptLengthError,
    CptRowSumError,
    CptValueError,
    CycleError,
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
from .graphs import Dag
from .network import CategoricalBN

KEYWORDS = ("variable", "states", "parents", "cpt")
_VAR_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.+-]*$")
_STATE_NAME = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.+-]*$")
ROW_SUM_TOL = 1e-6


def _valid_name(pattern: re.Pattern, name) -> bool:
    """Whether the parser takes ``name`` where ``pattern`` applies: a string
    that matches it whole and is not a keyword."""
    return isinstance(name, str) and pattern.fullmatch(name) is not None and name not in KEYWORDS


def _complete_rows(flat: np.ndarray) -> Optional[int]:
    """Rewrite each row's last entry as one minus the rest, in place.

    Loads all rounding slack onto the final state, which makes
    renormalization idempotent: the leading entries are untouched, so
    repeating the completion, or rendering with shortest-roundtrip floats
    and parsing again, reproduces the same bytes.  Returns the index of the
    first row whose completion would be negative (leading entries already
    above one), or None when every row completes.
    """
    lead = flat[:, :-1].sum(axis=1)
    last = 1.0 - lead
    bad = np.nonzero(last < 0.0)[0]
    if bad.size:
        return int(bad[0])
    flat[:, -1] = last
    return None


@dataclass
class _Block:
    name: str
    line: int
    col: int
    states: list
    parents: list
    parent_pos: list
    values: list  # (line, col, float)


def _tokenized_lines(text: str):
    """Per line that holds a token, its ``(line, column, token)`` triples,
    both counted from one; a ``#`` starts a comment.  ``str.split`` cuts at
    exactly the characters the regex ``\\s`` matches, and each column is
    found from the end of the token before it."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        words = body.split()
        if words:
            toks = []
            at = 0
            for w in words:
                at = body.find(w, at)
                toks.append((ln, at + 1, w))
                at += len(w)
            yield toks


def parse_network(text: str) -> CategoricalBN:
    """Parse a network document; raises a NetworkFormatError subclass on defects."""
    blocks: list[_Block] = []
    by_name: dict[str, _Block] = {}
    cur: _Block | None = None
    for toks in _tokenized_lines(text):
        ln, col, head = toks[0]
        rest = toks[1:]
        if head == "variable":
            if len(rest) != 1:
                raise NetworkSyntaxError(
                    f"'variable' takes exactly one name, got {len(rest)}", ln, col
                )
            _, ncol, name = rest[0]
            if not _valid_name(_VAR_NAME, name):
                raise NetworkSyntaxError(f"invalid variable name {name!r}", ln, ncol)
            if name in by_name:
                raise DuplicateVariableError(f"variable {name!r} declared twice", ln, ncol)
            cur = _Block(name, ln, ncol, [], [], [], [])
            blocks.append(cur)
            by_name[name] = cur
        elif head == "states":
            if cur is None:
                raise NetworkSyntaxError("'states' before any 'variable'", ln, col)
            if cur.states:
                raise NetworkSyntaxError(f"second 'states' line for {cur.name!r}", ln, col)
            if cur.parents or cur.values:
                raise NetworkSyntaxError("'states' must come right after 'variable'", ln, col)
            for _, scol, s in rest:
                if not _valid_name(_STATE_NAME, s):
                    raise NetworkSyntaxError(f"invalid state name {s!r}", ln, scol)
                if s in cur.states:
                    raise DuplicateStateError(
                        f"state {s!r} repeated for variable {cur.name!r}", ln, scol
                    )
                cur.states.append(s)
            if len(cur.states) < 2:
                raise StateCountError(
                    f"variable {cur.name!r} needs at least two states", ln, col
                )
        elif head == "parents":
            if cur is None:
                raise NetworkSyntaxError("'parents' before any 'variable'", ln, col)
            if not cur.states:
                raise NetworkSyntaxError("'parents' before 'states'", ln, col)
            if cur.parents or cur.values:
                raise NetworkSyntaxError(
                    f"misplaced 'parents' line for {cur.name!r}", ln, col
                )
            for _, pcol, pname in rest:
                if not _valid_name(_VAR_NAME, pname):
                    raise NetworkSyntaxError(f"invalid parent name {pname!r}", ln, pcol)
                if pname in cur.parents:
                    raise DuplicateParentError(
                        f"parent {pname!r} repeated for variable {cur.name!r}", ln, pcol
                    )
                cur.parents.append(pname)
                cur.parent_pos.append((ln, pcol))
        elif head == "cpt":
            if cur is None:
                raise NetworkSyntaxError("'cpt' before any 'variable'", ln, col)
            if not cur.states:
                raise NetworkSyntaxError("'cpt' before 'states'", ln, col)
            if not rest:
                raise NetworkSyntaxError("'cpt' line with no numbers", ln, col)
            for tln, tcol, tok in rest:
                try:
                    x = float(tok)
                except ValueError:
                    raise NumberFormatError(f"not a number: {tok!r}", tln, tcol) from None
                cur.values.append((tln, tcol, x))
        else:
            raise NetworkSyntaxError(f"expected a keyword, got {head!r}", ln, col)

    if not blocks:
        raise EmptyDocumentError("document declares no variables", 1, 1)

    tables = []  # per block, its cpt numbers as a (rows, states) array
    for b in blocks:
        if not b.states:
            raise NetworkSyntaxError(f"variable {b.name!r} has no 'states' line", b.line, b.col)
        for pname, (pl, pc) in zip(b.parents, b.parent_pos):
            if pname == b.name:
                raise NetworkCycleError(
                    f"variable {b.name!r} lists itself as parent", (b.name, b.name), pl, pc
                )
            if pname not in by_name:
                raise UnresolvedParentError(
                    f"parent {pname!r} of {b.name!r} is not declared", pl, pc
                )
        rows = 1
        for pname in b.parents:
            rows *= len(by_name[pname].states)
        expected = rows * len(b.states)
        if len(b.values) != expected:
            raise CptLengthError(
                f"cpt of {b.name!r} has {len(b.values)} numbers, expected {expected}",
                b.values[0][0] if b.values else b.line,
                b.values[0][1] if b.values else b.col,
            )
        for vl, vc, x in b.values:
            if not 0.0 <= x <= 1.0:
                raise CptValueError(f"probability {x!r} outside [0, 1]", vl, vc)
        flat = np.array([x for _, _, x in b.values], dtype=float).reshape(rows, len(b.states))
        tables.append(flat)
        sums = flat.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            r = int(bad[0])
            vl, vc, _ = b.values[r * len(b.states)]
            raise CptRowSumError(
                f"cpt row {r} of {b.name!r} sums to {float(sums[r])!r}", vl, vc
            )

    names = [b.name for b in blocks]
    edges = [(p, b.name) for b in blocks for p in b.parents]
    try:
        dag = Dag(names, edges)
    except CycleError as exc:
        raise NetworkCycleError(str(exc), exc.cycle, 1, 1) from None

    cards = {b.name: len(b.states) for b in blocks}
    cpts = {}
    for b, flat in zip(blocks, tables):
        r = _complete_rows(flat)
        if r is not None:
            vl, vc, _ = b.values[r * len(b.states)]
            raise CptRowSumError(
                f"cpt row {r} of {b.name!r} cannot be completed to an exact "
                "distribution: its leading entries already exceed one",
                vl,
                vc,
            )
        canon = dag.parents(b.name)
        if tuple(b.parents) != canon:
            shaped = flat.reshape([cards[p] for p in b.parents] + [len(b.states)])
            perm = [b.parents.index(p) for p in canon] + [len(b.parents)]
            flat = np.transpose(shaped, perm).reshape(flat.shape)
        cpts[b.name] = flat
    state_names = {b.name: tuple(b.states) for b in blocks}
    return CategoricalBN(dag, cards, cpts, state_names)


def serialize_network(bn: CategoricalBN) -> str:
    """Canonical text form: sorted variables, sorted parents, roundtrip floats.

    Raises ArgumentError, before anything is written, for a network with a
    variable or state name that :func:`parse_network` would not read back.
    """
    if len(bn.node_ids) == 0:
        raise ArgumentError("cannot serialize an empty network")
    for name in bn.node_ids:
        if not _valid_name(_VAR_NAME, name):
            raise ArgumentError(
                f"variable name {name!r} cannot be written: the network format does not accept it"
            )
        for s in bn.state_names[name]:
            if not _valid_name(_STATE_NAME, s):
                raise ArgumentError(
                    f"state name {s!r} of {name!r} cannot be written: the network format does not accept it"
                )
    out = io.StringIO()
    for name in sorted(bn.node_ids):
        card = bn.cardinalities[name]
        canon = bn.dag.parents(name)
        parents = sorted(canon)
        table = bn.cpts[name]
        if tuple(parents) != canon:
            shaped = table.reshape([bn.cardinalities[p] for p in canon] + [card])
            perm = [canon.index(p) for p in parents] + [len(parents)]
            table = np.transpose(shaped, perm).reshape(table.shape[0], card)
        table = np.array(table, dtype=float)
        if _complete_rows(table) is not None:
            raise ArgumentError(
                f"CPT of {name!r} has a row whose leading entries exceed one; "
                "it cannot be rendered as an exact distribution"
            )
        out.write(f"variable {name}\n")
        out.write("  states " + " ".join(bn.state_names[name]) + "\n")
        if parents:
            out.write("  parents " + " ".join(parents) + "\n")
        for row in table.tolist():
            out.write("  cpt " + " ".join(map(repr, row)) + "\n")
        out.write("\n")
    return out.getvalue()


@dataclass(frozen=True)
class Dataset:
    """A parsed dataset: column names plus raw cells ('?' marks missing)."""

    columns: tuple
    cells: tuple  # tuple of row tuples

    def records(self, exclude: Iterable = ()) -> list[PartialRecord]:
        drop = set(exclude)
        out = []
        for row in self.cells:
            observed = {}
            missing = set()
            for name, cell in zip(self.columns, row):
                if name in drop:
                    continue
                if cell == "?":
                    missing.add(name)
                else:
                    observed[name] = cell
            out.append(PartialRecord(observed=observed, missing=frozenset(missing)))
        return out

    def column(self, name: str) -> list:
        if name not in self.columns:
            raise DataFormatError(f"dataset has no column {name!r}")
        k = self.columns.index(name)
        return [row[k] for row in self.cells]


def parse_dataset(text: str) -> Dataset:
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if not rows:
        raise DataFormatError("dataset is empty")
    header = tuple(c.strip() for c in rows[0])
    if len(set(header)) != len(header):
        raise DataFormatError("dataset has duplicate column names")
    if any(not c for c in header):
        raise DataFormatError("dataset has an empty column name")
    cells = []
    for i, r in enumerate(rows[1:], start=2):
        if len(r) != len(header):
            raise DataFormatError(
                f"row {i} has {len(r)} cells, expected {len(header)}"
            )
        cells.append(tuple(c.strip() for c in r))
    return Dataset(columns=header, cells=tuple(cells))


def serialize_dataset(columns: Sequence[str], cells: Iterable[Sequence[str]]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(list(columns))
    for row in cells:
        w.writerow(list(row))
    return out.getvalue()

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

A defect raises a NetworkFormatError subclass carrying the line and the
column, both counted from one, of the word that the regex ``\\S+`` finds
there.  The parser reads the document in one pass over its lines, keeping for
each block only the line numbers and comment-free text that an error needs,
and then checks the numbers of all blocks with the same number of states in
one array; :func:`parse_network` lists which defect wins when there are
several.

Serialization is canonical: variables sorted by name, parents listed sorted
by name (rows permuted accordingly), floats rendered shortest-roundtrip.
serialize -> parse -> serialize is a byte-identical fixed point.  The
serializer refuses, before writing anything, a network whose names or CPT
rows the parser would reject or read back differently.

Datasets are plain CSV: a header of variable names, then one row per record
with state names as cells and ``?`` for missing values.
"""

from __future__ import annotations

import bisect
import csv
import io
import re
from collections import defaultdict
from dataclasses import dataclass, field
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
    NetworkFormatError,
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


def _refused_row(flat: np.ndarray) -> Optional[int]:
    """Index of the first row with an entry outside [0, 1] (NaN included) or
    a sum off one by more than ``ROW_SUM_TOL``, or None."""
    bad = ~((flat >= 0.0) & (flat <= 1.0)).all(axis=1)
    bad |= np.abs(flat.sum(axis=1) - 1.0) > ROW_SUM_TOL
    return int(np.argmax(bad)) if bad.any() else None


def _why_refused(table: np.ndarray) -> tuple:
    """For a table that holds a refused row: ``(i, None)`` for its first
    entry outside [0, 1] in row-major order, which wins wherever it lies,
    else ``(None, r)`` for its first row whose sum is off."""
    out = np.flatnonzero(~((table >= 0.0) & (table <= 1.0)))
    return (int(out[0]), None) if out.size else (None, _refused_row(table))


class _Stack:
    """The rows of several tables with one number of states, stacked in
    table order into one array, and the rows each table holds in it."""

    __slots__ = ("members", "firsts", "rows", "flat")

    def __init__(self):
        self.members = []  # table indices, ascending
        self.firsts = []  # the first row of each
        self.rows = 0
        self.flat = None

    def add(self, member: int, rows: int) -> int:
        """Append a table's place; returns its first row."""
        self.members.append(member)
        self.firsts.append(self.rows)
        self.rows += rows
        return self.firsts[-1]

    def first(self, check) -> Optional[tuple]:
        """``(table index, row in that table, the table's rows)`` at the first
        row that ``check(self.flat)`` reports, or None."""
        g = check(self.flat)
        if g is None:
            return None
        j = bisect.bisect_right(self.firsts, g) - 1
        end = self.firsts[j + 1] if j + 1 < len(self.firsts) else self.rows
        return self.members[j], g - self.firsts[j], self.flat[self.firsts[j] : end]


def _first_refusal(stacks: Iterable[_Stack], check) -> Optional[tuple]:
    """What :meth:`_Stack.first` gives for the first table, in table order,
    with a row that ``check`` reports, or None."""
    hits = [hit for hit in (s.first(check) for s in stacks) if hit is not None]
    return min(hits, key=lambda hit: hit[0], default=None)


def _reorder_parents(table: np.ndarray, parents: list, cards: list, order) -> np.ndarray:
    """``table``, whose rows enumerate ``parents`` (with cardinalities
    ``cards``) mixed-radix, last varying fastest, re-indexed for the same
    parents listed in ``order``; a new C-contiguous array."""
    shaped = table.reshape(list(cards) + [table.shape[1]])
    perm = [parents.index(p) for p in order] + [len(parents)]
    return np.transpose(shaped, perm).reshape(table.shape)


def _columns(body: str) -> list:
    """The column, counted from one, of each word of ``body.split()``.

    ``str.split`` cuts at exactly the characters the regex ``\\s`` matches,
    and each word is found from the end of the word before it, so these are
    the columns of the matches of ``\\S+``.  Only error paths call it.
    """
    cols = []
    at = 0
    for w in body.split():
        at = body.find(w, at)
        cols.append(at + 1)
        at += len(w)
    return cols


@dataclass
class _Block:
    """A variable block as the line pass leaves it.  A position is kept as a
    line number and that line's comment-free text, from which
    :func:`_columns` finds the column when an error needs it."""

    name: str
    line: int
    body: str  # of the 'variable' line
    states: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    parents_at: tuple = (0, "")  # (line, body) of the 'parents' line
    cpt_at: list = field(default_factory=list)  # (line, body, index of its first number)
    count: int = 0  # how many numbers the cpt lines hold
    pool: list = field(default_factory=list)  # numbers of all blocks with as many states
    first: int = 0  # the first row of its table in the array of those numbers

    def name_pos(self) -> tuple:
        return self.line, _columns(self.body)[1]

    def parent_pos(self, k: int) -> tuple:
        ln, body = self.parents_at
        return ln, _columns(body)[k + 1]

    def value_pos(self, i: int) -> tuple:
        """Line and column of the block's ``i``-th cpt number."""
        j = bisect.bisect_right([first for _, _, first in self.cpt_at], i) - 1
        ln, body, first = self.cpt_at[j]
        return ln, _columns(body)[1 + i - first]


def _row_count(b: _Block, by_name: dict) -> int:
    """Parent configurations of a block, after the checks that need no
    numbers: a 'states' line, declared parents other than itself, and as
    many numbers as the table has entries."""
    if not b.states:
        raise NetworkSyntaxError(f"variable {b.name!r} has no 'states' line", *b.name_pos())
    for k, pname in enumerate(b.parents):
        if pname == b.name:
            raise NetworkCycleError(
                f"variable {b.name!r} lists itself as parent", (b.name, b.name), *b.parent_pos(k)
            )
        if pname not in by_name:
            raise UnresolvedParentError(
                f"parent {pname!r} of {b.name!r} is not declared", *b.parent_pos(k)
            )
    rows = 1
    for pname in b.parents:
        rows *= len(by_name[pname].states)
    expected = rows * len(b.states)
    if b.count != expected:
        raise CptLengthError(
            f"cpt of {b.name!r} has {b.count} numbers, expected {expected}",
            *(b.value_pos(0) if b.count else b.name_pos()),
        )
    return rows


def parse_network(text: str) -> CategoricalBN:
    """Parse a network document; raises a NetworkFormatError subclass on defects.

    Errors carry the line and the column of the defect, both counted from
    one.  The first defect wins, in this order: every syntax error and
    unreadable number, in text order; then block by block a missing
    'states' line, a self or undeclared parent, a wrong number count, an
    entry outside [0, 1] and a row sum off by more than ``ROW_SUM_TOL``;
    then a cycle; then a row that cannot be completed.
    """
    blocks: list[_Block] = []
    by_name: dict[str, _Block] = {}
    pools: dict[int, list] = {}  # states -> cpt numbers of those blocks, in block order
    good_vars, good_states = set(), set()  # names the patterns have accepted
    cur: _Block | None = None

    def at(k: int) -> tuple:
        """Line and column of word ``k`` of the line being read."""
        return ln, _columns(body)[k]

    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.partition("#")[0]
        words = body.split()
        if not words:
            continue
        head = words[0]
        if head == "cpt":
            if cur is None:
                raise NetworkSyntaxError("'cpt' before any 'variable'", *at(0))
            if not cur.states:
                raise NetworkSyntaxError("'cpt' before 'states'", *at(0))
            if len(words) == 1:
                raise NetworkSyntaxError("'cpt' line with no numbers", *at(0))
            try:
                cur.pool.extend(map(float, words[1:]))
            except ValueError:
                for k, tok in enumerate(words[1:], start=1):
                    try:
                        float(tok)
                    except ValueError:
                        raise NumberFormatError(f"not a number: {tok!r}", *at(k)) from None
            cur.cpt_at.append((ln, body, cur.count))
            cur.count += len(words) - 1
        elif head == "variable":
            if len(words) != 2:
                raise NetworkSyntaxError(
                    f"'variable' takes exactly one name, got {len(words) - 1}", *at(0)
                )
            name = words[1]
            if name not in good_vars and not _valid_name(_VAR_NAME, name):
                raise NetworkSyntaxError(f"invalid variable name {name!r}", *at(1))
            good_vars.add(name)
            if name in by_name:
                raise DuplicateVariableError(f"variable {name!r} declared twice", *at(1))
            cur = _Block(name, ln, body)
            blocks.append(cur)
            by_name[name] = cur
        elif head == "states":
            if cur is None:
                raise NetworkSyntaxError("'states' before any 'variable'", *at(0))
            if cur.states:
                raise NetworkSyntaxError(f"second 'states' line for {cur.name!r}", *at(0))
            if cur.parents or cur.count:
                raise NetworkSyntaxError("'states' must come right after 'variable'", *at(0))
            for k, s in enumerate(words[1:], start=1):
                if s not in good_states and not _valid_name(_STATE_NAME, s):
                    raise NetworkSyntaxError(f"invalid state name {s!r}", *at(k))
                good_states.add(s)
                if s in cur.states:
                    raise DuplicateStateError(
                        f"state {s!r} repeated for variable {cur.name!r}", *at(k)
                    )
                cur.states.append(s)
            if len(cur.states) < 2:
                raise StateCountError(f"variable {cur.name!r} needs at least two states", *at(0))
            cur.pool = pools.setdefault(len(cur.states), [])
        elif head == "parents":
            if cur is None:
                raise NetworkSyntaxError("'parents' before any 'variable'", *at(0))
            if not cur.states:
                raise NetworkSyntaxError("'parents' before 'states'", *at(0))
            if cur.parents or cur.count:
                raise NetworkSyntaxError(f"misplaced 'parents' line for {cur.name!r}", *at(0))
            for k, pname in enumerate(words[1:], start=1):
                if pname not in good_vars and not _valid_name(_VAR_NAME, pname):
                    raise NetworkSyntaxError(f"invalid parent name {pname!r}", *at(k))
                good_vars.add(pname)
                if pname in cur.parents:
                    raise DuplicateParentError(
                        f"parent {pname!r} repeated for variable {cur.name!r}", *at(k)
                    )
                cur.parents.append(pname)
            cur.parents_at = (ln, body)
        else:
            raise NetworkSyntaxError(f"expected a keyword, got {head!r}", *at(0))

    if not blocks:
        raise EmptyDocumentError("document declares no variables", 1, 1)

    # The numeric checks run on the blocks before the first one with a
    # defect that needs no numbers; that defect is raised after them.
    rows = []
    try:
        for b in blocks:
            rows.append(_row_count(b, by_name))
        late = None
    except NetworkFormatError as exc:
        late = exc
    stacks: dict[int, _Stack] = defaultdict(_Stack)
    for k, n in enumerate(rows):
        blocks[k].first = stacks[len(blocks[k].states)].add(k, n)
    for card, s in stacks.items():
        s.flat = np.array(pools[card][: s.rows * card], dtype=float).reshape(s.rows, card)

    hit = _first_refusal(stacks.values(), _refused_row)
    if hit is not None:
        k, _, table = hit
        b = blocks[k]
        i, r = _why_refused(table)
        if i is not None:
            raise CptValueError(
                f"probability {float(table.flat[i])!r} outside [0, 1]", *b.value_pos(i)
            )
        raise CptRowSumError(
            f"cpt row {r} of {b.name!r} sums to {float(table.sum(axis=1)[r])!r}",
            *b.value_pos(r * len(b.states)),
        )
    if late is not None:
        raise late

    names = [b.name for b in blocks]
    edges = [(p, b.name) for b in blocks for p in b.parents]
    try:
        dag = Dag(names, edges)
    except CycleError as exc:
        raise NetworkCycleError(str(exc), exc.cycle, 1, 1) from None

    hit = _first_refusal(stacks.values(), _complete_rows)
    if hit is not None:
        k, r, _ = hit
        b = blocks[k]
        raise CptRowSumError(
            f"cpt row {r} of {b.name!r} cannot be completed to an exact "
            "distribution: its leading entries already exceed one",
            *b.value_pos(r * len(b.states)),
        )

    for s in stacks.values():
        s.flat.setflags(write=False)
    cards, cpts, state_names = {}, {}, {}
    for v, b, n in zip(dag.node_ids, blocks, rows):
        card = len(b.states)
        table = stacks[card].flat[b.first : b.first + n]
        canon = dag.parents(v)
        if tuple(b.parents) != canon:
            pcards = [len(by_name[p].states) for p in b.parents]
            table = _reorder_parents(table, b.parents, pcards, canon)
            table.setflags(write=False)
        cards[v], cpts[v], state_names[v] = card, table, tuple(b.states)
    return CategoricalBN._trusted(dag, cards, cpts, state_names)


def serialize_network(bn: CategoricalBN) -> str:
    """Canonical text form: sorted variables, sorted parents, roundtrip floats.

    Raises, before anything is written, for a network that
    :func:`parse_network` would not read back as it is: ArgumentError for a
    variable or state name the format does not accept, CptValueError for a
    CPT entry outside [0, 1] (NaN included), CptRowSumError for a row whose
    sum is off one by more than ``ROW_SUM_TOL`` or whose leading entries
    exceed one.  The CPT errors name the variable and the row as written;
    their line and column are 0, as there is no text.
    """
    if len(bn.node_ids) == 0:
        raise ArgumentError("cannot serialize an empty network")
    good_states = set()  # names the pattern has accepted
    for name in bn.node_ids:
        if not _valid_name(_VAR_NAME, name):
            raise ArgumentError(
                f"variable name {name!r} cannot be written: the network format does not accept it"
            )
        for s in bn.state_names[name]:
            if s not in good_states and not _valid_name(_STATE_NAME, s):
                raise ArgumentError(
                    f"state name {s!r} of {name!r} cannot be written: the network format does not accept it"
                )
            good_states.add(s)
    names = sorted(bn.node_ids)
    parents, firsts = [], []
    stacks: dict[int, _Stack] = defaultdict(_Stack)
    tables: dict[int, list] = defaultdict(list)
    for k, name in enumerate(names):
        card = bn.cardinalities[name]
        canon = bn.dag.parents(name)
        parents.append(sorted(canon))
        table = bn.cpts[name]
        if tuple(parents[k]) != canon:
            table = _reorder_parents(table, canon, [bn.cardinalities[p] for p in canon], parents[k])
        firsts.append(stacks[card].add(k, len(table)))
        tables[card].append(table)
    for card, s in stacks.items():
        s.flat = np.concatenate(tables[card], dtype=float)

    hit = _first_refusal(stacks.values(), _refused_row)
    if hit is not None:
        k, _, table = hit
        i, r = _why_refused(table)
        if i is not None:
            raise CptValueError(
                f"CPT of {names[k]!r} has probability {float(table.flat[i])!r} outside [0, 1] "
                f"in row {i // table.shape[1]}; the network format does not accept it"
            )
        raise CptRowSumError(
            f"CPT row {r} of {names[k]!r} sums to {float(table.sum(axis=1)[r])!r}, not one "
            f"within {ROW_SUM_TOL}; the network format does not accept it"
        )
    hit = _first_refusal(stacks.values(), _complete_rows)
    if hit is not None:
        k, r, _ = hit
        raise CptRowSumError(
            f"CPT row {r} of {names[k]!r} cannot be completed to an exact distribution: its "
            "leading entries already exceed one; the network format does not accept it"
        )

    lines = {}  # cardinality -> the cpt line of each row of its stack
    for card, s in stacks.items():
        row = "  cpt " + " ".join(["%r"] * card) + "\n"
        lines[card] = ((row * s.rows) % tuple(s.flat.ravel().tolist())).splitlines(keepends=True)
    out = []
    for k, name in enumerate(names):
        out.append(f"variable {name}\n  states " + " ".join(bn.state_names[name]) + "\n")
        if parents[k]:
            out.append("  parents " + " ".join(parents[k]) + "\n")
        card = bn.cardinalities[name]
        out.extend(lines[card][firsts[k] : firsts[k] + len(bn.cpts[name])])
        out.append("\n")
    return "".join(out)


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

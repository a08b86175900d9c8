"""Splitting an evidence query into conditionally independent subsets.

Given evidence nodes e, the non-evidence part of the relevant subgraph
(evidence plus its ancestors) falls apart into groups that are mutually
d-separated by e: the connected components of the moralized relevant
subgraph after deleting the evidence nodes.  Each group S carries boundary
sets drawn from e:

    e_mb  evidence in the union of Markov blankets of S's members,
    e_ch  evidence in the union of their children,
    e_pa  evidence in the union of their parents.

The front end is linear in the relevant nodes and builds no moral graph.
The restriction filters the network's own lists (see
:meth:`CategoricalBN.restrict`), and one breadth-first search over the
parent and child lists, stopped at evidence, finds every group together
with its boundaries: a node's moral neighbours are its parents, its
children and their other parents.  The query then factorizes into one term
per group plus a closed-form factor for the leftover evidence e' = e minus
all child boundaries, whose parents are all evidence themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InternalConsistencyError
from .graphs import Dag
from .network import CategoricalBN, validate_evidence


@dataclass(frozen=True)
class SubsetBoundary:
    e_mb: tuple
    e_ch: tuple
    e_pa: tuple


@dataclass(frozen=True)
class SubsetDecomposition:
    relevant_nodes: tuple
    subsets: tuple  # tuple of node tuples, canonical order inside and across
    boundaries: tuple  # SubsetBoundary per subset
    leftover_evidence: tuple


def relevant_subgraph(bn: CategoricalBN, e: Iterable) -> CategoricalBN:
    """Restriction of the network to e and its ancestors.

    Parents of retained nodes are always retained (a parent of an ancestor of
    e is itself an ancestor of e), so all CPTs carry over unchanged and the
    restriction is a valid network whose joint is the original marginal over
    the retained nodes.  Being ancestral, it takes the network's topological
    order, filtered, and it shares the network's node ids, read-only CPT
    arrays and state-name tuples (see :meth:`CategoricalBN.restrict`).
    """
    ev = set(e)
    bn.dag.check_nodes(ev)
    return bn.restrict(ev | bn.dag._ancestors(ev))


def find_subsets(dag: Dag, e: Iterable) -> tuple[tuple, tuple]:
    """Connected components of the moralized graph after deleting e, with
    their evidence boundaries, from one breadth-first pass over the parent
    and child lists.

    The caller passes the relevant subgraph for e; on that graph the
    components are exactly the maximal groups of non-evidence nodes that are
    pairwise d-connected given e and d-separated from everything else by e.
    A node's moral neighbours are its parents, its children and their other
    parents, read straight off the graph's lists; no moral graph is built.
    A breadth-first search from each not yet reached non-evidence node, in
    canonical order, stops at evidence: the evidence it touches is the
    component's ``e_mb`` (a node's moral neighbours are its Markov blanket),
    and the evidence among the members' own children and parents is
    ``e_ch`` and ``e_pa``.

    Returns ``(subsets, boundaries)``: components listed by their smallest
    member, members in canonical order, and one SubsetBoundary each.
    """
    ev = set(e)
    dag.check_nodes(ev)
    parents = dag._parents
    children = dag._children
    key = dag._index.__getitem__
    seen = set(ev)  # evidence never starts or joins a component
    subsets = []
    boundaries = []
    for start in dag.node_ids:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        ch = set()
        pa = set()
        spouses = set()
        for v in comp:  # comp grows while it is read: a breadth-first queue
            for p in parents[v]:
                if p in ev:
                    pa.add(p)
                elif p not in seen:
                    seen.add(p)
                    comp.append(p)
            for c in children[v]:
                if c in ev:
                    ch.add(c)
                elif c not in seen:
                    seen.add(c)
                    comp.append(c)
                for p in parents[c]:
                    if p in ev:
                        spouses.add(p)
                    elif p not in seen:
                        seen.add(p)
                        comp.append(p)
        comp.sort(key=key)
        subsets.append(tuple(comp))
        boundaries.append(
            SubsetBoundary(
                e_mb=tuple(sorted(ch | pa | spouses, key=key)),
                e_ch=tuple(sorted(ch, key=key)),
                e_pa=tuple(sorted(pa, key=key)),
            )
        )
    return tuple(subsets), tuple(boundaries)


def decompose(bn: CategoricalBN, evidence: Mapping) -> SubsetDecomposition:
    """Full decomposition of an evidence query.

    Prunes to the relevant subgraph, finds the conditionally independent
    subsets with their boundaries there, and separates the leftover evidence
    e' = e minus all child boundaries.  Every parent of a leftover node is
    itself evidence (a non-evidence relevant parent would put the node in
    that parent's child boundary), which is what makes the leftover factor
    a plain product of CPT lookups.
    """
    validate_evidence(bn, evidence)
    ev = set(evidence)
    rel = relevant_subgraph(bn, ev)
    subsets, boundaries = find_subsets(rel.dag, ev)
    left = ev.difference(*(b.e_ch for b in boundaries))
    leftover = tuple(filter(left.__contains__, rel.dag.node_ids))
    parents = rel.dag._parents
    for v in leftover:
        if not ev.issuperset(parents[v]):
            raise InternalConsistencyError(
                f"leftover evidence node {v!r} has a non-evidence parent"
            )
    return SubsetDecomposition(
        relevant_nodes=rel.dag.node_ids,
        subsets=subsets,
        boundaries=boundaries,
        leftover_evidence=leftover,
    )

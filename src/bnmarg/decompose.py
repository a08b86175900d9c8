"""Splitting an evidence query into conditionally independent subsets.

Given evidence nodes e, the non-evidence part of the relevant subgraph
(evidence plus its ancestors) falls apart into groups that are mutually
d-separated by e: the connected components of the moralized relevant
subgraph after deleting the evidence nodes.  Each group S carries boundary
sets drawn from e:

    e_mb  evidence in the union of Markov blankets of S's members,
    e_ch  evidence in the union of their children,
    e_pa  evidence in the union of their parents,

and the query factorizes into one term per group plus a closed-form factor
for the leftover evidence e' = e minus all child boundaries, whose parents
are all evidence themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ArgumentError, InternalConsistencyError
from .graphs import Dag, markov_blanket, moralize
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
    the retained nodes.
    """
    ev = set(e)
    bn.dag.check_nodes(ev)
    keep = ev | set(bn.dag.ancestors_of_set(ev))
    return bn.restrict(keep)


def find_subsets(dag: Dag, e: Iterable) -> list[tuple]:
    """Connected components of the moralized graph after deleting e.

    The caller passes the relevant subgraph for e; on that graph the
    components are exactly the maximal groups of non-evidence nodes that are
    pairwise d-connected given e and d-separated from everything else by e.
    Components are listed by their smallest member, members in canonical
    order.
    """
    ev = set(e)
    dag.check_nodes(ev)
    moral = moralize(dag)
    free = [v for v in dag.node_ids if v not in ev]
    seen = set()
    components = []
    for start in free:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            v = frontier.pop()
            for u in moral.neighbors(v):
                if u in ev or u in seen:
                    continue
                seen.add(u)
                comp.add(u)
                frontier.append(u)
        components.append(dag.sort(comp))
    components.sort(key=lambda c: dag.index(c[0]))
    return components


def subset_boundaries(dag: Dag, subset: Iterable, e: Iterable) -> SubsetBoundary:
    """Evidence boundary sets of one subset, computed in the given graph."""
    sub = set(subset)
    ev = set(e)
    dag.check_nodes(sub | ev)
    if sub & ev:
        raise ArgumentError("subset and evidence overlap")
    if not sub:
        raise ArgumentError("empty subset")
    mb = set()
    ch = set()
    pa = set()
    for v in sub:
        mb.update(markov_blanket(dag, v))
        ch.update(dag.children(v))
        pa.update(dag.parents(v))
    return SubsetBoundary(
        e_mb=dag.sort(mb & ev),
        e_ch=dag.sort(ch & ev),
        e_pa=dag.sort(pa & ev),
    )


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
    subsets = find_subsets(rel.dag, ev)
    boundaries = tuple(subset_boundaries(rel.dag, s, ev) for s in subsets)
    covered = set()
    for b in boundaries:
        covered.update(b.e_ch)
    leftover = rel.dag.sort(ev - covered)
    for v in leftover:
        if not set(rel.dag.parents(v)) <= ev:
            raise InternalConsistencyError(
                f"leftover evidence node {v!r} has a non-evidence parent"
            )
    return SubsetDecomposition(
        relevant_nodes=rel.dag.node_ids,
        subsets=tuple(subsets),
        boundaries=boundaries,
        leftover_evidence=leftover,
    )

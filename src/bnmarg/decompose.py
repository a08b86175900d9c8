"""Splitting an evidence query into conditionally independent subsets.

Given evidence nodes e, the non-evidence part of the relevant subgraph
(evidence plus its ancestors) falls apart into groups that are mutually
d-separated by e: the connected components of the moralized relevant
subgraph after deleting the evidence nodes.  Each group S carries boundary
sets drawn from e:

    e_mb  evidence in the union of Markov blankets of S's members,
    e_ch  evidence in the union of their children,
    e_pa  evidence in the union of their parents.

One breadth-first search over the moral adjacency, read off the parent
lists and stopped at evidence, finds every group together with its e_mb
(the evidence it touches); e_ch and e_pa come from the members' own child
and parent lists.  The query then factorizes into one term per group plus
a closed-form factor for the leftover evidence e' = e minus all child
boundaries, whose parents are all evidence themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InternalConsistencyError
from .graphs import Dag, moral_adjacency
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
    their evidence boundaries, from one traversal of the moral adjacency.

    The caller passes the relevant subgraph for e; on that graph the
    components are exactly the maximal groups of non-evidence nodes that are
    pairwise d-connected given e and d-separated from everything else by e.
    A breadth-first search from each not yet reached non-evidence node, in
    canonical order, stops at evidence positions; the evidence it touches is
    the component's ``e_mb`` (a node's moral neighbours are its Markov
    blanket), and ``e_ch`` and ``e_pa`` are the evidence among the members'
    own children and parents.

    Returns ``(subsets, boundaries)``: components listed by their smallest
    member, members in canonical order, and one SubsetBoundary each.
    """
    ev = set(e)
    dag.check_nodes(ev)
    nodes = dag.node_ids
    adj = moral_adjacency(dag, nodes)
    observed = [v in ev for v in nodes]
    seen = list(observed)  # evidence never starts or joins a component
    subsets = []
    boundaries = []
    for start in range(len(nodes)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        mb = set()
        for i in comp:  # comp grows while it is read: a breadth-first queue
            for j in adj[i]:
                if observed[j]:
                    mb.add(j)
                elif not seen[j]:
                    seen[j] = True
                    comp.append(j)
        comp.sort()
        members = tuple(nodes[i] for i in comp)
        ch = {c for v in members for c in dag.children(v) if c in ev}
        pa = {p for v in members for p in dag.parents(v) if p in ev}
        subsets.append(members)
        boundaries.append(
            SubsetBoundary(e_mb=tuple(nodes[j] for j in sorted(mb)), e_ch=dag.sort(ch), e_pa=dag.sort(pa))
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
        subsets=subsets,
        boundaries=boundaries,
        leftover_evidence=leftover,
    )

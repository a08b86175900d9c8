"""Evidence-marginal engine: subset splitting with mixed exact/sampled factors.

The headline estimator decomposes P(X_e) into one factor per conditionally
independent subset plus a closed-form factor for leftover evidence whose
parents are all observed:

    P(X_e) = P(X_e') * prod_i  sum_{X_Si} prod_{v in Si + e_ch(i)} P(X_v | X_pa(v)).

Subsets smaller than ``n_max`` are summed exactly on a junction tree; the
rest are estimated by belief-propagation-guided importance sampling.  Exact
factors contribute zero variance, so mixing keeps the whole estimate
unbiased while shrinking its spread relative to sampling everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .decompose import decompose, relevant_subgraph
from .errors import ArgumentError, CapacityError, InternalConsistencyError
from .junction import DEFAULT_TABLE_CAP, build_junction_tree, incorporate_evidence, log_tree_sum
from .network import (
    CategoricalBN, derive_seed, log_cpt_product, log_enumerate_marginal, require_integers, validate_evidence
)
from .sampling import SamplerConfig, clamp_factors, gibbs_proposal, importance_estimate, loopy_bp

METHODS = ("sgs", "jt", "lbp-is", "gs", "enum")
_METHOD_ALIASES = {"jt_full": "jt", "lbp_is": "lbp-is", "gibbs": "gs"}


def canonical_method(method: str) -> str:
    """Resolve method aliases; unknown names raise."""
    name = _METHOD_ALIASES.get(method, method)
    if name not in METHODS:
        raise ArgumentError(f"unknown method {method!r}; expected one of {METHODS}")
    return name


@dataclass(frozen=True)
class SgsConfig:
    """Engine configuration.

    n_max:
        Strict size threshold: subsets with fewer than n_max nodes are summed
        exactly, the rest are sampled.  There is no auto-tuning; pick it for
        the hardware at hand.  0 samples everything, a huge value sums
        everything exactly (subject to the clique table cap, which triggers a
        per-subset fallback to sampling).
    sampler:
        Shared sampling knobs; the importance budget is split across sampled
        subsets proportionally to their size, and each sampled subset draws
        from an independent stream derived from (seed, subset index).
    method_override:
        Optional per-subset forcing, {subset index: "exact" | "approx"},
        mainly for experiments.  A forced "exact" may still raise
        CapacityError.
    """

    n_max: int = 15
    sampler: SamplerConfig = field(default_factory=lambda: SamplerConfig(sample_count=1000))
    method_override: Optional[Mapping] = None
    table_cap: int = DEFAULT_TABLE_CAP

    def __post_init__(self):
        require_integers(self, ("n_max", "table_cap"), ArgumentError)
        if self.n_max < 0:
            raise ArgumentError("n_max must be >= 0")
        if self.table_cap < 2:
            raise ArgumentError("table_cap must be >= 2")
        if self.method_override:
            for k, m in self.method_override.items():
                if m not in ("exact", "approx"):
                    raise ArgumentError(f"method_override[{k!r}] must be 'exact' or 'approx'")


@dataclass(frozen=True, slots=True)
class SubsetReport:
    """Provenance of one subset factor inside a MarginalEstimate."""

    nodes: tuple
    method: str  # "exact" | "approx"
    log_factor: float
    sample_count: Optional[int] = None
    weight_variance: Optional[float] = None


@dataclass(frozen=True, slots=True)
class MarginalEstimate:
    """A marginal probability with per-subset provenance.

    log_value always equals leftover_log plus the sum of subset log factors.
    """

    log_value: float
    method: str
    per_subset: tuple
    leftover_log: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


def evidence_only_factor(bn: CategoricalBN, e_prime, evidence: Mapping) -> float:
    """Log probability of leftover evidence: a plain product of CPT rows.

    Every node in e_prime must have all parents observed; the factor is then
    prod_v P(X_v = e[v] | X_pa(v) = e[pa(v)]) with no summation at all.
    ``evidence`` must already have passed ``validate_evidence``.
    """
    for v in e_prime:
        if v not in evidence:
            raise ArgumentError(f"leftover node {v!r} is not observed")
        if not all(map(evidence.__contains__, bn.dag.parents(v))):
            raise InternalConsistencyError(
                f"leftover evidence node {v!r} has unobserved parents"
            )
    return log_cpt_product(bn, e_prime, evidence)


def _log_exact(bn: CategoricalBN, scope, factors, values: Mapping, table_cap: int) -> float:
    """Exact solver: log of the sum over the free nodes of ``scope`` of the
    product of the ``factors``' CPTs, with ``values`` fixed; a node of
    ``scope`` outside ``factors`` contributes the constant one."""
    jt = build_junction_tree(bn, scope, factors, table_cap)
    return log_tree_sum(incorporate_evidence(jt, values))


def _sampled_report(nodes: tuple, factors, q, rng, m: int) -> SubsetReport:
    """Importance estimate of the sum :func:`_log_exact` computes, over the
    clamped ``factors``, from ``m`` draws of proposal ``q`` (loopy-BP
    beliefs or Gibbs frequencies) made with ``rng``."""
    res = importance_estimate(factors, q, rng, m)
    return SubsetReport(nodes, "approx", res.log_estimate, res.sample_count, res.weight_variance)


def marginal_sgs(bn: CategoricalBN, evidence: Mapping, cfg: Optional[SgsConfig] = None) -> MarginalEstimate:
    """Evidence marginal via subgroup separation.

    Decomposes the query, plans exact/sampled per subset (strict n_max
    threshold, capacity fallback to sampling, optional per-subset override),
    splits the sample budget across sampled subsets proportionally to size,
    and multiplies the factors back together in log space.

    The sampled subsets get their proposals from one :func:`loopy_bp` call
    per width (largest cardinality), on all their clamped factors at once;
    each subset stops on its own, so its proposal, draws and factor are
    those of a run on that subset alone.
    """
    cfg = cfg or SgsConfig()
    dec = decompose(bn, evidence)  # validates the evidence before any work
    rel = relevant_subgraph(bn, set(evidence))
    override = dict(cfg.method_override or {})

    # exact subsets are solved while planning; the sampled set, and with it
    # the budget split and the per-subset seeds, is fixed before any sampling
    reports = [None] * len(dec.subsets)
    sampled = []
    for i, (sub, b) in enumerate(zip(dec.subsets, dec.boundaries)):
        scope = sub + b.e_mb
        factors = sub + b.e_ch
        values = {v: evidence[v] for v in b.e_mb}
        forced = override.get(i)
        if forced == "exact" or (forced is None and len(sub) < cfg.n_max):
            try:
                log_f = _log_exact(rel, scope, factors, values, cfg.table_cap)
            except CapacityError:
                if forced == "exact":
                    raise
            else:
                reports[i] = SubsetReport(nodes=sub, method="exact", log_factor=log_f)
                continue
        sampled.append((i, sub, scope, factors, values))

    # one loopy-BP run per width carries every sampled subset of that width;
    # each subset then draws its own share of the budget from its own stream
    total_size = sum(len(sub) for _, sub, _, _, _ in sampled)
    runs = {}  # width -> [(subset index, subset, clamped factors)]
    for i, sub, scope, factors, values in sampled:
        clamped = clamp_factors(rel, values, scope, factors)
        runs.setdefault(clamped.width, []).append((i, sub, clamped))
    for run in runs.values():
        proposals = loopy_bp(rel, evidence, cfg.sampler, clamped=tuple(c for _, _, c in run))
        for (i, sub, clamped), q in zip(run, proposals):
            m = max(1, int(round(cfg.sampler.sample_count * len(sub) / total_size)))
            rng = np.random.default_rng(derive_seed(cfg.sampler.seed, i))
            reports[i] = _sampled_report(sub, clamped, q, rng, m)

    log_total = 0.0
    for r in reports:  # subset order, so the sum does not depend on solving order
        log_total += r.log_factor
    leftover_log = evidence_only_factor(rel, dec.leftover_evidence, evidence)
    return MarginalEstimate(
        log_value=leftover_log + log_total,
        method="sgs",
        per_subset=tuple(reports),
        leftover_log=leftover_log,
    )


def _whole_graph_sampled(
    bn: CategoricalBN, evidence: Mapping, free: tuple, name: str, sampler: SamplerConfig
) -> SubsetReport:
    """``lbp-is`` on the relevant nodes (the evidence and its ancestors), or
    ``gs`` on the whole network, as one importance estimate with every node
    of that scope as a factor."""
    if not evidence:
        return SubsetReport(free, "approx", 0.0, 0, 0.0)
    nodes = evidence.keys() | bn.dag._ancestors(evidence) if name == "lbp-is" else bn.node_ids
    if all(map(evidence.__contains__, nodes)):
        return SubsetReport(free, "approx", evidence_only_factor(bn, bn.dag.sort(nodes), evidence), 0, 0.0)
    rng = np.random.default_rng(int(sampler.seed))
    clamped = clamp_factors(bn, evidence, None if name == "gs" else nodes)
    if name == "lbp-is":
        q = loopy_bp(bn, evidence, sampler, clamped=clamped)
    else:
        q = gibbs_proposal(bn, clamped, sampler, rng)  # the weights continue its stream
    return _sampled_report(free, clamped, q, rng, sampler.sample_count)


def marginal(
    bn: CategoricalBN,
    evidence: Mapping,
    method: str = "sgs",
    cfg: Optional[SgsConfig] = None,
) -> MarginalEstimate:
    """One entry point for every estimator, returning a uniform result shape.

    Methods: ``sgs`` (the decomposing estimator), ``jt`` (one junction tree
    over the whole network), ``lbp-is`` (belief-propagation importance
    sampling on the evidence and its ancestors), ``gs`` (Gibbs-frequency
    proposal baseline), ``enum`` (direct summation; capped).  ``jt`` and
    ``sgs`` share the exact solver; ``lbp-is``, ``gs`` and ``sgs`` share the
    clamped factors and the importance estimate.
    """
    cfg = cfg or SgsConfig()
    name = canonical_method(method)
    if name == "sgs":
        return marginal_sgs(bn, evidence, cfg)

    validate_evidence(bn, evidence)
    free = tuple(v for v in bn.node_ids if v not in evidence)
    if name == "jt":
        log_v = _log_exact(bn, bn.node_ids, bn.node_ids, evidence, cfg.table_cap)
        report = SubsetReport(nodes=free, method="exact", log_factor=log_v)
    elif name == "enum":
        report = SubsetReport(nodes=free, method="exact", log_factor=log_enumerate_marginal(bn, evidence))
    else:
        report = _whole_graph_sampled(bn, evidence, free, name, cfg.sampler)
    return MarginalEstimate(log_value=report.log_factor, method=name, per_subset=(report,), leftover_log=0.0)

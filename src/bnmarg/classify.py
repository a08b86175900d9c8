"""Classification of incomplete records against candidate networks.

Each candidate model scores a record by the marginal probability of the
record's observed variables, computed with the subgroup-separation engine, so
missing values are summed out rather than imputed or dropped.  Posteriors
assume a uniform prior over the candidate models.  The drop-variables
baseline instead requires models defined only over the observed variables and
scores complete-data joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .engine import SgsConfig, marginal_sgs
from .errors import ClassificationError, DomainError
from .network import CategoricalBN, _log_sum_exp, log_joint_probability


@dataclass(frozen=True)
class PartialRecord:
    """One record: observed variable -> state name, plus the missing set."""

    observed: Mapping
    missing: frozenset = frozenset()

    def __post_init__(self):
        overlap = set(self.observed) & set(self.missing)
        if overlap:
            raise ClassificationError(
                f"record marks observed variables as missing: {sorted(overlap, key=str)}"
            )


@dataclass(frozen=True)
class ModelScore:
    name: str
    log_likelihood: float
    used: tuple  # observed variables that resolved in this model
    unresolved: tuple  # observed variables the model does not know


@dataclass(frozen=True)
class ClassificationResult:
    scores: tuple
    posteriors: tuple  # aligned with scores
    predicted: str
    tie: bool


@dataclass(frozen=True)
class RocResult:
    auc: float
    points: tuple  # (fpr, tpr), from (0,0) to (1,1)


def _resolve_evidence(record: PartialRecord, bn: CategoricalBN, model_name: str):
    """Map observed state names to state indices; report unknown variables."""
    evidence = {}
    used = []
    unresolved = []
    for var in sorted(record.observed, key=str):  # node ids need not be strings
        if var not in bn.dag:
            unresolved.append(var)
            continue
        state = str(record.observed[var])
        names = bn.state_names[var]
        if state not in names:
            raise ClassificationError(
                f"record value {state!r} is not a state of {var!r} in model {model_name!r}"
            )
        evidence[var] = names.index(state)
        used.append(var)
    return evidence, tuple(used), tuple(unresolved)


def _posteriors(scores: Sequence[ModelScore]) -> ClassificationResult:
    """Posteriors under a uniform prior over the models, normalised with
    :func:`network._log_sum_exp` of the log likelihoods."""
    logs = [s.log_likelihood for s in scores]
    norm = _log_sum_exp(logs)
    if math.isinf(norm):
        # every model assigns probability zero: fall back to a uniform posterior
        post = [1.0 / len(scores)] * len(scores)
    else:
        post = [math.exp(l - norm) for l in logs]
    best = max(post)
    winners = [i for i, p in enumerate(post) if p == best]
    return ClassificationResult(
        scores=tuple(scores),
        posteriors=tuple(post),
        predicted=scores[winners[0]].name,
        tie=len(winners) > 1,
    )


def classify(
    record: PartialRecord,
    models: Sequence[tuple],
    cfg: Optional[SgsConfig] = None,
) -> ClassificationResult:
    """Score one incomplete record against (name, network) candidates.

    The likelihood per model is the marginal probability of the record's
    observed variables that the model knows; observed variables absent from a
    model are reported in the score's ``unresolved`` list, never silently
    ignored.  A record with nothing resolvable in some model cannot be scored.
    """
    if not models:
        raise ClassificationError("no candidate models")
    cfg = cfg or SgsConfig()
    scores = []
    for name, bn in models:
        evidence, used, unresolved = _resolve_evidence(record, bn, name)
        if not evidence:
            raise ClassificationError(
                f"record has no observed variable known to model {name!r}"
            )
        est = marginal_sgs(bn, evidence, cfg)
        scores.append(
            ModelScore(
                name=name,
                log_likelihood=est.log_value,
                used=used,
                unresolved=unresolved,
            )
        )
    return _posteriors(scores)


def classify_drop_missing(record: PartialRecord, models_reduced: Sequence[tuple]) -> ClassificationResult:
    """Baseline: complete-data joints on models restricted to observed variables.

    Every variable of every reduced model must be observed by the record; the
    score is then a plain joint probability, no marginalization involved.
    """
    if not models_reduced:
        raise ClassificationError("no candidate models")
    scores = []
    for name, bn in models_reduced:
        evidence, used, unresolved = _resolve_evidence(record, bn, name)
        missing = [str(v) for v in bn.node_ids if v not in evidence]
        if missing:
            raise ClassificationError(
                f"record does not cover reduced model {name!r}: missing {missing}"
            )
        scores.append(
            ModelScore(
                name=name,
                log_likelihood=log_joint_probability(bn, evidence),
                used=used,
                unresolved=unresolved,
            )
        )
    return _posteriors(scores)


def roc_auc(scores: Iterable[float], labels: Iterable) -> RocResult:
    """ROC curve and area for binary labels, larger score = more positive.

    The curve sweeps distinct score thresholds from high to low; tied scores
    move as one group, producing the diagonal segments whose trapezoids
    realize the usual tie-corrected area.  Needs both classes, and no NaN.
    """
    sc = [float(s) for s in scores]
    lb = [bool(l) for l in labels]
    if len(sc) != len(lb):
        raise DomainError("scores and labels differ in length")
    if any(map(math.isnan, sc)):
        raise DomainError("scores must not be NaN")
    pos = sum(lb)
    neg = len(lb) - pos
    if pos == 0 or neg == 0:
        raise DomainError("ROC needs at least one positive and one negative label")
    order = sorted(range(len(sc)), key=lambda i: -sc[i])
    points = [(0.0, 0.0)]
    auc = 0.0
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        dtp = dfp = 0
        while j < len(order) and sc[order[j]] == sc[order[i]]:
            if lb[order[j]]:
                dtp += 1
            else:
                dfp += 1
            j += 1
        prev = (fp / neg, tp / pos)
        tp += dtp
        fp += dfp
        cur = (fp / neg, tp / pos)
        auc += (cur[0] - prev[0]) * (prev[1] + cur[1]) / 2.0
        points.append(cur)
        i = j
    return RocResult(auc=auc, points=tuple(points))

"""Rank-selection rules for the unweighted and weighted Sobolev regimes: one rule, read per regime.

Fractional ranks are ceiled (with a tiny slack so that exact powers of
ten do not round up spuriously): ranks are cardinalities and ceiling
preserves the error guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .functions import default_gamma, subdomain_dims
from .train import tt_cost
from .tucker import tucker_cost

REGIME_TUCKER = "tucker-unweighted"
REGIME_TT = "tt-unweighted"
REGIME_TUCKER_WEIGHTED = "tucker-weighted"
REGIME_TT_WEIGHTED = "tt-weighted"
# Each regime as its two independent choices: (tensor-train format, weighted).
_REGIMES = {
    REGIME_TUCKER: (False, False),
    REGIME_TT: (True, False),
    REGIME_TUCKER_WEIGHTED: (False, True),
    REGIME_TT_WEIGHTED: (True, True),
}

_CEIL_SLACK = 1e-9


def _ceil(x: float) -> int:
    return math.ceil(x - _CEIL_SLACK)


class WeightedHypothesisError(ValueError):
    """The weighted-regime hypothesis delta' > delta + k/n is violated."""


@dataclass(frozen=True)
class SchedulerParams:
    """Target accuracy, smoothness, subdomain dimensions, and weights."""

    epsilon: float
    k: float
    dims: tuple
    delta: Optional[float] = None
    delta_prime: Optional[float] = None
    gamma: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.k <= 0:
            raise ValueError("smoothness order k must be positive")
        object.__setattr__(self, "dims", subdomain_dims(self.dims))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
            if not all(g > 0 for g in self.gamma):
                raise ValueError(f"gamma weights must be positive, got {self.gamma}")

    @property
    def m(self) -> int:
        return len(self.dims)

    def require_weighted(self) -> None:
        """Validate the weighted-mode hypotheses: equal subdomain dimensions n, delta > 0, delta' > delta + k/n."""
        if len(set(self.dims)) != 1:
            raise ValueError(f"weighted schedules assume identical subdomains; got dims {self.dims}")
        if self.delta is None or self.delta_prime is None:
            raise WeightedHypothesisError("weighted mode needs delta and delta_prime")
        n = self.dims[0]
        if not self.delta > 0:
            raise WeightedHypothesisError("delta must be positive")
        if not self.delta_prime > self.delta + self.k / n:
            raise WeightedHypothesisError(f"need delta' > delta + k/n = {self.delta + self.k / n}, "
                                          f"got delta' = {self.delta_prime}")


@dataclass(frozen=True)
class RankSchedule:
    """Per-mode truncation ranks with predicted cost.

    M is the dimension-truncation index of the weighted TT regime: bond
    ranks are zero for j > M and the corresponding modes are dropped.
    `paper_M_value` records the printed closed form for comparison.
    """

    regime: str
    ranks: tuple
    params: SchedulerParams
    M: Optional[int] = None
    paper_M_value: Optional[float] = None

    @property
    def predicted_cost(self) -> int:
        """Core entries (Tucker) or chain rank entries of the kept bonds (TT)."""
        if self.regime in (REGIME_TUCKER, REGIME_TUCKER_WEIGHTED):
            return tucker_cost(self.ranks)
        return tt_cost([r for r in self.ranks if r > 0])

    def to_json(self) -> str:
        p = self.params
        return json.dumps({
            "regime": self.regime,
            "epsilon": p.epsilon,
            "k": p.k,
            "dims": list(p.dims),
            "delta": p.delta,
            "delta_prime": p.delta_prime,
            "ranks": list(self.ranks),
            "M": self.M,
            "predicted_cost": self.predicted_cost,
            "paper_M_value": self.paper_M_value,
        }, indent=2, sort_keys=True) + "\n"


def build_schedule(regime: str, p: SchedulerParams) -> RankSchedule:
    """The one rank rule r_j = ceil(c_j w_j eps^(-s_j/k)), floored at 1, with `regime`'s format and weighting.

    The format sets the steps and the carry. Tucker has a rank per mode
    j = 1..m, with c_j = 1 and s_j = n_j. TT has a rank per bond
    j = 1..m-1; unweighted it carries the running dimension sum
    s_j = n_1+...+n_j (c_j = 1), weighted the previous rank c_j = r_{j-1}
    (c_1 = 1, s_j = n).

    The weighting sets w_j: 1 unweighted, gamma_j^n j^((1+delta)n/k)
    weighted, with gamma from `p.gamma` or else j^(-(1+delta')/k)
    (`default_gamma`). Weighted TT keeps only the bonds j <= M, the
    dimension-truncation index, and drops the rest (rank 0). The printed
    form eps^(k/(1+delta')) vanishes as eps -> 0; requiring
    gamma_{M+1}^k <= eps with the default weights gives the value used
    operationally, M = ceil(eps^(-1/(1+delta'))), at least 1. Both are
    recorded (`M`, `paper_M_value`).
    """
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r}; known: {sorted(_REGIMES)}")
    tt, weighted = _REGIMES[regime]
    if weighted:
        p.require_weighted()
    if tt and p.m < 2:
        raise ValueError("tensor-train schedules need at least two modes")
    steps = p.m - 1 if tt else p.m
    M = printed = None
    if tt and weighted:
        M = max(_ceil(p.epsilon ** (-1.0 / (1.0 + p.delta_prime))), 1)
        printed = p.epsilon ** (p.k / (1.0 + p.delta_prime))
    kept = steps if M is None else min(M, steps)
    if weighted:
        gamma = default_gamma(kept, p.k, p.delta_prime) if p.gamma is None else p.gamma
        if len(gamma) < kept:
            raise ValueError(f"gamma supplies {len(gamma)} weights but mode {len(gamma) + 1} is needed")
    ranks, s, r = [], 0, 1
    for j, n in enumerate(p.dims[:kept], start=1):
        s = s + n if tt and not weighted else n
        w = (r if tt else 1) * gamma[j - 1] ** n * float(j) ** ((1.0 + p.delta) * n / p.k) if weighted else 1.0
        r = max(_ceil(w * p.epsilon ** (-s / p.k)), 1)
        ranks.append(r)
    return RankSchedule(regime, tuple(ranks) + (0,) * (steps - kept), p, M, printed)

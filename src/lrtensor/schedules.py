"""Rank-selection rules for the unweighted and weighted Sobolev regimes.

Fractional ranks are ceiled (with a tiny slack so that exact powers of
ten do not round up spuriously): ranks are cardinalities and ceiling
preserves the error guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Tuple

from .train import tt_cost
from .tucker import tucker_cost

REGIME_TUCKER = "tucker-unweighted"
REGIME_TT = "tt-unweighted"
REGIME_TUCKER_WEIGHTED = "tucker-weighted"
REGIME_TT_WEIGHTED = "tt-weighted"

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
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.k <= 0:
            raise ValueError("smoothness order k must be positive")
        if not self.dims:
            raise ValueError("dims must list at least one subdomain")
        if any(n < 1 for n in self.dims):
            raise ValueError("subdomain dimensions must be >= 1")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))

    @property
    def m(self) -> int:
        return len(self.dims)

    def require_weighted(self) -> int:
        """Validate the weighted-mode hypotheses; returns the common n."""
        if len(set(self.dims)) != 1:
            raise ValueError(
                "weighted schedules assume identical subdomains; "
                f"got dims {self.dims}"
            )
        if self.delta is None or self.delta_prime is None:
            raise WeightedHypothesisError("weighted mode needs delta and delta_prime")
        n = self.dims[0]
        if not self.delta > 0:
            raise WeightedHypothesisError("delta must be positive")
        if not self.delta_prime > self.delta + self.k / n:
            raise WeightedHypothesisError(
                f"need delta' > delta + k/n = {self.delta + self.k / n}, "
                f"got delta' = {self.delta_prime}"
            )
        return n

    def gamma_at(self, j: int) -> float:
        """Weight of mode j (1-based); defaults to j^(-(1+delta')/k)."""
        if self.gamma is not None:
            if j > len(self.gamma):
                raise ValueError(
                    f"gamma supplies {len(self.gamma)} weights but mode {j} is needed"
                )
            return self.gamma[j - 1]
        return float(j) ** (-(1.0 + self.delta_prime) / self.k)


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

    def active_ranks(self) -> tuple:
        return tuple(r for r in self.ranks if r > 0)

    @property
    def predicted_cost(self) -> int:
        """Core entries (Tucker) or chain rank entries of the kept bonds (TT)."""
        if self.regime in (REGIME_TUCKER, REGIME_TUCKER_WEIGHTED):
            return tucker_cost(self.ranks)
        return tt_cost(self.active_ranks())

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


def tucker_ranks_unweighted(p: SchedulerParams) -> RankSchedule:
    """r_j = ceil(eps^(-n_j/k)), one rank per mode."""
    ranks = tuple(_ceil(p.epsilon ** (-n / p.k)) for n in p.dims)
    return RankSchedule(
        regime=REGIME_TUCKER,
        ranks=ranks,
        params=p,
    )


def tt_ranks_unweighted(p: SchedulerParams) -> RankSchedule:
    """r_j = ceil(eps^(-(n_1+...+n_j)/k)) for the m-1 bonds."""
    if p.m < 2:
        raise ValueError("tensor-train schedules need at least two modes")
    ranks = tuple(_ceil(p.epsilon ** (-partial / p.k)) for partial in accumulate(p.dims[:-1]))
    return RankSchedule(
        regime=REGIME_TT,
        ranks=ranks,
        params=p,
    )


def _weighted_rank(p: SchedulerParams, n: int, j: int, r_prev: int = 1) -> int:
    """ceil(r_prev gamma_j^n j^((1+delta)n/k) eps^(-n/k)), floored at 1: the weighted regimes' rule."""
    raw = r_prev * p.gamma_at(j) ** n * float(j) ** ((1.0 + p.delta) * n / p.k) * p.epsilon ** (-n / p.k)
    return max(_ceil(raw), 1)


def tucker_ranks_weighted(p: SchedulerParams) -> RankSchedule:
    """r_j = ceil(gamma_j^n j^((1+delta)n/k) eps^(-n/k)), floored at 1."""
    n = p.require_weighted()
    ranks = tuple(_weighted_rank(p, n, j) for j in range(1, p.m + 1))
    return RankSchedule(
        regime=REGIME_TUCKER_WEIGHTED,
        ranks=ranks,
        params=p,
    )


def dimension_truncation_index(p: SchedulerParams) -> Tuple[int, float]:
    """Operational M and the printed closed form.

    The printed form eps^(k/(1+delta')) vanishes as eps -> 0; requiring
    gamma_{M+1}^k <= eps with the default weights gives the value used
    operationally, M = ceil(eps^(-1/(1+delta'))). Both are returned.
    """
    printed = p.epsilon ** (p.k / (1.0 + p.delta_prime))
    operational = _ceil(p.epsilon ** (-1.0 / (1.0 + p.delta_prime)))
    return max(operational, 1), printed


def tt_ranks_weighted(p: SchedulerParams) -> RankSchedule:
    """Recursive bond ranks r_j = ceil(r_{j-1} gamma_j^n j^((1+delta)n/k) eps^(-n/k)).

    Bonds beyond the dimension-truncation index M are set to zero
    (modes dropped entirely).
    """
    n = p.require_weighted()
    if p.m < 2:
        raise ValueError("tensor-train schedules need at least two modes")
    M, printed = dimension_truncation_index(p)
    ranks = []
    r_prev = 1
    for j in range(1, p.m):
        if j > M:
            ranks.append(0)
            continue
        r_prev = _weighted_rank(p, n, j, r_prev)
        ranks.append(r_prev)
    return RankSchedule(
        regime=REGIME_TT_WEIGHTED,
        ranks=tuple(ranks),
        params=p,
        M=M,
        paper_M_value=printed,
    )


def build_schedule(regime: str, p: SchedulerParams) -> RankSchedule:
    builders = {
        REGIME_TUCKER: tucker_ranks_unweighted,
        REGIME_TT: tt_ranks_unweighted,
        REGIME_TUCKER_WEIGHTED: tucker_ranks_weighted,
        REGIME_TT_WEIGHTED: tt_ranks_weighted,
    }
    if regime not in builders:
        raise ValueError(f"unknown regime {regime!r}; known: {sorted(builders)}")
    return builders[regime](p)

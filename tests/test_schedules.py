import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtensor as lt
from lrtensor.schedules import (
    REGIME_TT,
    REGIME_TT_WEIGHTED,
    REGIME_TUCKER,
    REGIME_TUCKER_WEIGHTED,
    build_schedule,
)


def params(**overrides):
    defaults = dict(epsilon=0.1, k=1.0, dims=(1, 1, 1))
    defaults.update(overrides)
    return lt.SchedulerParams(**defaults)


class TestUnweightedTucker:
    def test_isotropic_example(self):
        s = build_schedule(REGIME_TUCKER, params(epsilon=0.01, k=2.0))
        assert s.ranks == (10, 10, 10)
        assert s.predicted_cost == 1000

    def test_anisotropic_example(self):
        s = build_schedule(REGIME_TUCKER, params(epsilon=0.01, k=2.0, dims=(1, 2, 3)))
        assert s.ranks == (10, 100, 1000)

    def test_ceiling_is_exact_on_representable_powers(self):
        # 0.01 ** -0.5 rounds up past 10 in floating point; the schedule
        # must still say 10, not 11
        s = build_schedule(REGIME_TUCKER, params(epsilon=0.01, k=2.0, dims=(1,)))
        assert s.ranks == (10,)

    def test_monotone_in_epsilon(self):
        for eps_hi, eps_lo in [(0.5, 0.25), (0.1, 0.01), (0.3, 0.2)]:
            hi = build_schedule(REGIME_TUCKER, params(epsilon=eps_hi))
            lo = build_schedule(REGIME_TUCKER, params(epsilon=eps_lo))
            assert all(a <= b for a, b in zip(hi.ranks, lo.ranks))


class TestUnweightedTT:
    def test_cumulative_dimension_example(self):
        s = build_schedule(REGIME_TT, params(epsilon=0.1, k=2.0, dims=(1, 2, 1)))
        assert s.ranks == (4, 32)
        # check against direct evaluation: eps^-(sum n_i / k)
        assert s.ranks[0] == math.ceil(0.1 ** (-1 / 2) - 1e-9)
        assert s.ranks[1] == math.ceil(0.1 ** (-3 / 2) - 1e-9)

    def test_rank_count_is_modes_minus_one(self):
        s = build_schedule(REGIME_TT, params(dims=(1,) * 5))
        assert len(s.ranks) == 4

    def test_ranks_nondecreasing(self):
        s = build_schedule(REGIME_TT, params(epsilon=0.05, k=1.5, dims=(1, 2, 1, 3)))
        assert all(a <= b for a, b in zip(s.ranks, s.ranks[1:]))


class TestWeightedTucker:
    def test_golden_example(self):
        # gamma_j = j^-3, delta = 0.5: r_j = ceil(10 * j^-1.5)
        p = params(
            epsilon=0.1,
            k=1.0,
            dims=(1,) * 8,
            delta=0.5,
            delta_prime=2.0,
            gamma=lt.default_gamma(8, k=1.0, delta_prime=2.0),
        )
        s = build_schedule(REGIME_TUCKER_WEIGHTED, p)
        assert s.ranks == (10, 4, 2, 2, 1, 1, 1, 1)

    def test_ranks_floor_at_one(self):
        p = params(
            epsilon=0.1,
            dims=(1,) * 12,
            delta=1.0,
            delta_prime=3.0,
            gamma=lt.default_gamma(12, k=1.0, delta_prime=3.0),
        )
        s = build_schedule(REGIME_TUCKER_WEIGHTED, p)
        assert min(s.ranks) == 1
        assert s.ranks[-1] == 1

    def test_log_cost_saturates_with_modes(self):
        def log_cost(m):
            p = params(
                epsilon=0.05,
                dims=(1,) * m,
                delta=1.0,
                delta_prime=3.0,
                gamma=lt.default_gamma(m, k=1.0, delta_prime=3.0),
            )
            return sum(math.log(r) for r in build_schedule(REGIME_TUCKER_WEIGHTED, p).ranks)

        assert log_cost(64) <= log_cost(16) * 1.01

    def test_hypothesis_violation_rejected(self):
        # delta_prime must exceed delta + k/n
        p = params(dims=(1, 1, 1), delta=1.0, delta_prime=1.5, gamma=(1.0, 0.5, 0.25))
        with pytest.raises(lt.WeightedHypothesisError):
            build_schedule(REGIME_TUCKER_WEIGHTED, p)

    def test_unequal_dims_rejected(self):
        p = params(dims=(1, 2, 1), delta=1.0, delta_prime=5.0, gamma=(1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            build_schedule(REGIME_TUCKER_WEIGHTED, p)


class TestWeightedTT:
    GOLDEN = dict(
        epsilon=0.1,
        k=1.0,
        dims=(1,) * 8,
        delta=0.5,
        delta_prime=3.0,
        gamma=lt.default_gamma(8, k=1.0, delta_prime=3.0),
    )

    def test_truncated_schedule_and_cost(self):
        s = build_schedule(REGIME_TT_WEIGHTED, params(**self.GOLDEN))
        assert s.M == 2
        assert s.ranks == (10, 18, 0, 0, 0, 0, 0)
        assert s.ranks[: s.M] == (10, 18)
        assert s.predicted_cost == 10 + 10 * 18
        assert s.paper_M_value == pytest.approx(0.1 ** (1.0 / 4.0))

    def test_truncation_index_formula(self):
        s = build_schedule(REGIME_TT_WEIGHTED, params(**self.GOLDEN))
        assert s.M == math.ceil(0.1 ** (-1 / 4) - 1e-9)
        assert s.paper_M_value == pytest.approx(0.1**0.25)
        mild = dict(self.GOLDEN, epsilon=0.9)
        assert build_schedule(REGIME_TT_WEIGHTED, params(**mild)).M >= 1

    def test_cost_within_theoretical_envelope(self):
        p = params(**self.GOLDEN)
        s = build_schedule(REGIME_TT_WEIGHTED, p)
        n = p.dims[0]
        envelope = s.M * (p.epsilon ** (-n / p.k)) ** 2 * math.e**2
        assert s.predicted_cost <= envelope * 10  # loose sanity envelope
        assert s.predicted_cost == 190


class TestBuildSchedule:
    def test_dispatch(self):
        p = params(epsilon=0.01, k=2.0)
        assert build_schedule(REGIME_TUCKER, p).regime == REGIME_TUCKER
        assert build_schedule(REGIME_TT, p).regime == REGIME_TT
        wp = params(
            delta=1.0, delta_prime=3.0, gamma=lt.default_gamma(3, 1.0, 3.0)
        )
        assert (
            build_schedule(REGIME_TUCKER_WEIGHTED, wp).regime
            == REGIME_TUCKER_WEIGHTED
        )
        assert build_schedule(REGIME_TT_WEIGHTED, wp).regime == REGIME_TT_WEIGHTED

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            build_schedule("nope", params())

    def test_json_round_trip_and_key_order(self):
        s = build_schedule(REGIME_TUCKER, params(epsilon=0.01, k=2.0))
        text = s.to_json()
        data = json.loads(text)
        assert data["regime"] == REGIME_TUCKER
        assert data["ranks"] == [10, 10, 10]
        assert data["predicted_cost"] == 1000
        assert list(data) == sorted(data)
        assert text.endswith("\n")
        # deterministic serialization
        assert text == build_schedule(REGIME_TUCKER, params(epsilon=0.01, k=2.0)).to_json()


class TestParamValidation:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            params(epsilon=1.0)
        with pytest.raises(ValueError):
            params(epsilon=0.0)

    def test_positive_smoothness(self):
        with pytest.raises(ValueError):
            params(k=0.0)

    @pytest.mark.parametrize("gamma", [(1.0, 0.0, 0.5), (-1.0, 0.0, -0.5, 0.1), (0.5, -1e-300)])
    def test_nonpositive_weights_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma weights must be positive"):
            params(gamma=gamma)

    def test_gamma_length_guard(self):
        p = params(
            dims=(1,) * 4, delta=1.0, delta_prime=3.0, gamma=(1.0, 0.5)
        )
        with pytest.raises(ValueError):
            build_schedule(REGIME_TUCKER_WEIGHTED, p)


def closed_form(regime, p):
    """(ranks, M, paper_M_value) of the paper's four schedules, each written out on its own: the oracle
    `build_schedule`'s one rule must equal, raising the same errors for too few weights or a TT of one mode."""
    eps, k, dims, m = p.epsilon, p.k, p.dims, p.m

    def ceil(x):
        return math.ceil(x - 1e-9)

    def gamma(j):
        if p.gamma is None:
            return j ** (-(1 + p.delta_prime) / k)
        if j > len(p.gamma):
            raise ValueError(f"gamma supplies {len(p.gamma)} weights but mode {len(p.gamma) + 1} is needed")
        return p.gamma[j - 1]

    if regime in (REGIME_TT, REGIME_TT_WEIGHTED) and m < 2:
        raise ValueError("tensor-train schedules need at least two modes")
    if regime == REGIME_TUCKER:  # r_j = ceil(eps^(-n_j/k))
        return tuple(ceil(eps ** (-n / k)) for n in dims), None, None
    if regime == REGIME_TT:  # r_j = ceil(eps^(-(n_1+...+n_j)/k))
        return tuple(ceil(eps ** (-sum(dims[:j]) / k)) for j in range(1, m)), None, None
    n, delta = dims[0], p.delta
    if regime == REGIME_TUCKER_WEIGHTED:  # r_j = ceil(gamma_j^n j^((1+delta)n/k) eps^(-n/k)), at least 1
        return tuple(max(ceil(gamma(j) ** n * j ** ((1 + delta) * n / k) * eps ** (-n / k)), 1)
                     for j in range(1, m + 1)), None, None
    # r_j = ceil(r_{j-1} gamma_j^n j^((1+delta)n/k) eps^(-n/k)), at least 1, for j <= M; 0 beyond
    M = max(ceil(eps ** (-1 / (1 + p.delta_prime))), 1)
    ranks, r = [], 1
    for j in range(1, m):
        r = max(ceil(r * gamma(j) ** n * j ** ((1 + delta) * n / k) * eps ** (-n / k)), 1) if j <= M else 0
        ranks.append(r)
    return tuple(ranks), M, eps ** (k / (1 + p.delta_prime))


@st.composite
def regimes_and_params(draw):
    regime = draw(st.sampled_from([REGIME_TUCKER, REGIME_TT, REGIME_TUCKER_WEIGHTED, REGIME_TT_WEIGHTED]))
    m = draw(st.integers(1, 9))
    weighted = regime in (REGIME_TUCKER_WEIGHTED, REGIME_TT_WEIGHTED)
    n = draw(st.integers(1, 3))
    dims = (n,) * m if weighted else tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    k = draw(st.floats(0.5, 3.0))
    delta = draw(st.floats(0.05, 2.0))
    gamma = draw(st.none() | st.lists(st.floats(-12.0, 0.3).map(lambda e: 10.0**e), max_size=m + 2))
    return regime, lt.SchedulerParams(
        epsilon=draw(st.floats(0.01, 0.99)), k=k, dims=dims, delta=delta,
        delta_prime=delta + k / dims[0] + draw(st.floats(0.01, 3.0)), gamma=gamma)


@settings(max_examples=400, deadline=None)
@given(regimes_and_params())
def test_one_rule_equals_the_four_closed_forms(case):
    regime, p = case
    try:
        expected = closed_form(regime, p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build_schedule(regime, p)
        return
    s = build_schedule(regime, p)
    assert (s.ranks, s.M, s.paper_M_value) == expected

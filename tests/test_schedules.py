import json
import math

import numpy as np
import pytest

import lrtensor as lt
from lrtensor.schedules import (
    REGIME_TT,
    REGIME_TT_WEIGHTED,
    REGIME_TUCKER,
    REGIME_TUCKER_WEIGHTED,
    build_schedule,
    dimension_truncation_index,
    tt_ranks_unweighted,
    tt_ranks_weighted,
)


def params(**overrides):
    defaults = dict(epsilon=0.1, k=1.0, dims=(1, 1, 1))
    defaults.update(overrides)
    return lt.SchedulerParams(**defaults)


class TestUnweightedTucker:
    def test_isotropic_example(self):
        s = lt.tucker_ranks_unweighted(params(epsilon=0.01, k=2.0))
        assert s.ranks == (10, 10, 10)
        assert s.predicted_cost == 1000

    def test_anisotropic_example(self):
        s = lt.tucker_ranks_unweighted(params(epsilon=0.01, k=2.0, dims=(1, 2, 3)))
        assert s.ranks == (10, 100, 1000)

    def test_ceiling_is_exact_on_representable_powers(self):
        # 0.01 ** -0.5 rounds up past 10 in floating point; the schedule
        # must still say 10, not 11
        s = lt.tucker_ranks_unweighted(params(epsilon=0.01, k=2.0, dims=(1,)))
        assert s.ranks == (10,)

    def test_monotone_in_epsilon(self):
        for eps_hi, eps_lo in [(0.5, 0.25), (0.1, 0.01), (0.3, 0.2)]:
            hi = lt.tucker_ranks_unweighted(params(epsilon=eps_hi))
            lo = lt.tucker_ranks_unweighted(params(epsilon=eps_lo))
            assert all(a <= b for a, b in zip(hi.ranks, lo.ranks))


class TestUnweightedTT:
    def test_cumulative_dimension_example(self):
        s = tt_ranks_unweighted(params(epsilon=0.1, k=2.0, dims=(1, 2, 1)))
        assert s.ranks == (4, 32)
        # check against direct evaluation: eps^-(sum n_i / k)
        assert s.ranks[0] == math.ceil(0.1 ** (-1 / 2) - 1e-9)
        assert s.ranks[1] == math.ceil(0.1 ** (-3 / 2) - 1e-9)

    def test_rank_count_is_modes_minus_one(self):
        s = tt_ranks_unweighted(params(dims=(1,) * 5))
        assert len(s.ranks) == 4

    def test_ranks_nondecreasing(self):
        s = tt_ranks_unweighted(params(epsilon=0.05, k=1.5, dims=(1, 2, 1, 3)))
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
        s = lt.tucker_ranks_weighted(p)
        assert s.ranks == (10, 4, 2, 2, 1, 1, 1, 1)

    def test_ranks_floor_at_one(self):
        p = params(
            epsilon=0.1,
            dims=(1,) * 12,
            delta=1.0,
            delta_prime=3.0,
            gamma=lt.default_gamma(12, k=1.0, delta_prime=3.0),
        )
        s = lt.tucker_ranks_weighted(p)
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
            return sum(math.log(r) for r in lt.tucker_ranks_weighted(p).ranks)

        assert log_cost(64) <= log_cost(16) * 1.01

    def test_hypothesis_violation_rejected(self):
        # delta_prime must exceed delta + k/n
        p = params(dims=(1, 1, 1), delta=1.0, delta_prime=1.5, gamma=(1.0, 0.5, 0.25))
        with pytest.raises(lt.WeightedHypothesisError):
            lt.tucker_ranks_weighted(p)

    def test_unequal_dims_rejected(self):
        p = params(dims=(1, 2, 1), delta=1.0, delta_prime=5.0, gamma=(1.0, 0.5, 0.25))
        with pytest.raises(ValueError):
            lt.tucker_ranks_weighted(p)


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
        s = tt_ranks_weighted(params(**self.GOLDEN))
        assert s.M == 2
        assert s.ranks == (10, 18, 0, 0, 0, 0, 0)
        assert s.active_ranks() == (10, 18)
        assert s.predicted_cost == 10 + 10 * 18
        assert s.paper_M_value == pytest.approx(0.1 ** (1.0 / 4.0))

    def test_truncation_index_formula(self):
        M, printed = dimension_truncation_index(params(**self.GOLDEN))
        assert M == math.ceil(0.1 ** (-1 / 4) - 1e-9)
        assert printed == pytest.approx(0.1**0.25)
        mild = dict(self.GOLDEN, epsilon=0.9)
        M_small, _ = dimension_truncation_index(params(**mild))
        assert M_small >= 1

    def test_cost_within_theoretical_envelope(self):
        p = params(**self.GOLDEN)
        s = tt_ranks_weighted(p)
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

    def test_gamma_length_guard(self):
        p = params(
            dims=(1,) * 4, delta=1.0, delta_prime=3.0, gamma=(1.0, 0.5)
        )
        with pytest.raises(ValueError):
            lt.tucker_ranks_weighted(p)

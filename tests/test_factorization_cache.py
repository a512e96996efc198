"""A tensor factorizes each distinct unfolding and TT-step matrix once.

Counts wrap `svd.full_svd`, the one SVD call. The property test checks
that a decomposition read through a tensor's memo equals the same
decomposition of a fresh copy, bit for bit, whatever came before it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtensor as lt
import lrtensor.harness as hz
import lrtensor.svd as svd
from lrtensor.train import _forward_bonds


@pytest.fixture
def full_svd_calls(monkeypatch):
    calls = []
    original = svd.full_svd

    def counting(mat):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(svd, "full_svd", counting)
    return calls


def _rank_vs_eps(fmt):
    return {
        "experiment": "rank-vs-eps",
        "function": {"id": "weighted_exp", "m": 4},
        "grid": {"points_per_axis": 8},
        "format": fmt,
        "scheduler": {"epsilon": 0.5, "k": 1.0, "dims": [1, 1, 1, 1]},
        "epsilons": [0.5 * 0.5 ** i for i in range(6)],
    }


def _csv_column(path, name):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    col = lines[0].split(",").index(name)
    return [ln.split(",")[col] for ln in lines[1:]]


class TestFactorizationCounts:
    def test_rank_vs_eps_tucker_factorizes_each_mode_once(self, tmp_path, full_svd_calls):
        assert hz.run(hz.parse_config(_rank_vs_eps("tucker")), tmp_path).exit_code == 0
        assert len(full_svd_calls) == 4  # six epsilons, four modes

    def test_rank_vs_eps_tt_refactorizes_only_after_a_changed_rank(self, tmp_path, full_svd_calls):
        assert hz.run(hz.parse_config(_rank_vs_eps("tt")), tmp_path).exit_code == 0
        ranks = _csv_column(tmp_path / "rank_vs_eps.csv", "ranks")
        assert ranks == ["2x4x8", "4x16x8"] + ["8x64x8"] * 4
        # 3 steps at the first epsilon, then steps 2 and 3 after each new first or second rank
        assert len(full_svd_calls) == 7

    def test_compare_formats_shares_the_forward_tt_steps(self, tmp_path, full_svd_calls):
        raw = {"experiment": "compare-formats", "function": {"id": "weighted_exp", "m": 5},
               "grid": {"points_per_axis": 6}, "tolerance": 1e-6}
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        # 5 Tucker modes, 4 TT steps, and only the 2 backward steps of tt-bidir
        assert len(full_svd_calls) == 11


BUILDERS = {"tucker": lt.hosvd, "tt": lt.tt_svd, "tt-bidir": lt.tt_svd_bidirectional}


def _arrays(fmt, d):
    """Every array a decomposition holds: factors and core, or cores; and the spectra."""
    if fmt == "tucker":
        return [*d.factors, d.core.values, *(s.values for s in d.mode_spectra)]
    return [*d.cores, *(s.values for s in d.spectra)]


def _slots(m):
    """Every slot a tensor of m modes can memoize: one per Tucker mode and TT step."""
    forward = _forward_bonds(m)
    return ({("mode", j) for j in range(m)} | {("forward", i) for i in range(m - 1)}
            | {("backward", i) for i in range(m - 1 - forward)})


@st.composite
def _tensor_and_runs(draw):
    extents = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    m = len(extents)
    weighted = draw(st.booleans())
    runs = draw(st.lists(st.tuples(
        st.sampled_from(sorted(BUILDERS)),
        st.one_of(st.lists(st.integers(1, 6), min_size=m, max_size=m), st.floats(0.0, 1.2)),
    ), min_size=1, max_size=6))
    return extents, weighted, draw(st.integers(0, 2 ** 16)), runs


@settings(max_examples=60, deadline=None)
@given(_tensor_and_runs())
def test_memoized_decompositions_equal_fresh_ones(case):
    extents, weighted, seed, runs = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(extents)
    weights = [rng.uniform(0.5, 2.0, size=n) for n in extents] if weighted else None
    t = lt.DenseTensor.from_array(values, weights)
    norm = lt.frobenius_norm(t)
    for fmt, ranks in runs:
        if isinstance(ranks, float):
            rule = lt.TruncationRule.tail_energy(ranks * norm)
        else:
            rule = ranks if fmt == "tucker" else ranks[:-1]
        got = BUILDERS[fmt](t, rule)
        fresh = BUILDERS[fmt](lt.DenseTensor.from_array(values, weights), rule)
        assert got.ranks == fresh.ranks
        for a, b in zip(_arrays(fmt, got), _arrays(fmt, fresh), strict=True):
            assert np.array_equal(a, b)
        assert set(t._factorizations) <= _slots(len(extents))

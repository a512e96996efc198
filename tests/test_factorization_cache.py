"""A tensor factorizes each distinct Tucker-step and TT-step matrix once.

`svd.factorize` takes one `eigh` of a matrix equal to its transpose and
one SVD of any other. A step's matrix is fixed by the ranks kept before
it, so Tucker's mode 0 and TT's first step, both the mode-0 unfolding,
are factorized once, and a later step once per such ranks. Mode 1 of a
two-mode tensor whose weighted matrix equals its transpose needs no
solver: it is mode 0's factorization cut to the rank kept.

Counts wrap the `numpy.linalg` solvers themselves. The property test
checks that a decomposition read through a tensor's memo equals the same
decomposition of a fresh copy, bit for bit, whatever came before it.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtensor as lt
import lrtensor.harness as hz


BUILDERS = {"tucker": lt.hosvd, "tt": lt.tt_svd}


@pytest.fixture
def linalg_calls(monkeypatch):
    """(name, shape) of each np.linalg svd, eigh, eigvalsh and qr call."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "qr"):
        def recording(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def _svds(linalg_calls):
    """Shapes of the SVDs among `linalg_calls`: one per factorization that is not an `eigh`."""
    return [shape for name, shape in linalg_calls if name == "svd"]


def _rank_vs_eps(fmt, m=4):
    return {
        "experiment": "rank-vs-eps",
        "function": {"id": "weighted_exp", "m": m},
        "grid": {"points_per_axis": 8},
        "format": fmt,
        "scheduler": {"epsilon": 0.5, "k": 1.0, "dims": [1] * m},
        "epsilons": [0.5 * 0.5 ** i for i in range(6)],
    }


@pytest.fixture
def full_rank(monkeypatch):
    """Each sampled tensor replaced by seeded Gaussian noise of its shape and weights.

    Every registry function on more than two modes is separable: its samples have numerical rank 1, so every
    step would keep rank 1 (see `truncated_svd`). Noise has full numerical rank, so a step keeps the rank it
    is asked for, up to the size of its matrix, and the reuse and refactorization counts below have ranks to track.
    """
    sample = hz._sample_tensor

    def noise(config):
        t = sample(config)
        return lt.DenseTensor(np.random.default_rng(0).standard_normal(t.shape), t.mode_weights)

    monkeypatch.setattr(hz, "_sample_tensor", noise)


def _csv_column(path, name):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    col = lines[0].split(",").index(name)
    return [ln.split(",")[col] for ln in lines[1:]]


class TestFactorizationCounts:
    @pytest.mark.usefixtures("full_rank")
    def test_rank_vs_eps_tucker_refactorizes_only_after_a_changed_rank(self, tmp_path, linalg_calls):
        assert hz.run(hz.parse_config(_rank_vs_eps("tucker")), tmp_path).exit_code == 0
        ranks = _csv_column(tmp_path / "rank_vs_eps.csv", "ranks")
        assert ranks == ["2x2x2x2", "4x4x4x4"] + ["8x8x8x8"] * 4
        # 4 modes at the first epsilon, then modes 1-3 after each new first rank; mode 0 once
        assert len(_svds(linalg_calls)) == 10

    @pytest.mark.usefixtures("full_rank")
    def test_rank_vs_eps_tt_refactorizes_only_after_a_changed_rank(self, tmp_path, linalg_calls):
        assert hz.run(hz.parse_config(_rank_vs_eps("tt")), tmp_path).exit_code == 0
        ranks = _csv_column(tmp_path / "rank_vs_eps.csv", "ranks")
        assert ranks == ["2x4x8", "4x16x8"] + ["8x64x8"] * 4
        # 3 steps at the first epsilon, then steps 2 and 3 after each new first or second rank
        assert len(_svds(linalg_calls)) == 7

    def test_compare_formats_shares_the_forward_tt_steps(self, tmp_path, linalg_calls):
        raw = {"experiment": "compare-formats", "function": {"id": "weighted_exp", "m": 5},
               "grid": {"points_per_axis": 6}, "tolerance": 1e-6}
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        # 5 Tucker modes and TT steps 2-4 (step 1 is Tucker's mode 0)
        assert len(_svds(linalg_calls)) == 8

    def test_a_miss_drops_the_stale_steps_before_it_factorizes(self, monkeypatch):
        t = lt.DenseTensor(np.random.default_rng(4).standard_normal((4, 4, 4, 4)))
        lt.tt_svd(t, [2, 2, 2])
        held = []
        original = np.linalg.svd

        def recording(a, *args, **kwargs):
            held.append(set(t._factorizations))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        lt.tt_svd(t, [3, 2, 2])  # step 0 is a hit; steps 1 and 2 miss under the new first rank
        assert held == [{("mode", 0)}, {("mode", 0), ("forward", 1)}]

    def test_a_miss_on_one_mode_keeps_the_others(self, linalg_calls):
        t = lt.DenseTensor(np.random.default_rng(5).standard_normal((3, 4, 5)))
        for ranks in [(2, 2, 2), (2, 3, 2), (2, 3, 1)]:
            lt.hosvd(t, ranks)
        # the new rank of mode 1 changes only mode 2's matrix: the miss there keeps modes 0 and 1,
        # and a new rank of the last mode changes no matrix
        assert _svds(linalg_calls) == [(3, 3), (4, 4), (5, 4), (5, 6)]
        assert {slot: key for slot, (key, _) in t._factorizations.items()} == {
            ("mode", 0): (), ("mode", 1): (2,), ("mode", 2): (2, 3)}

    def test_two_mode_hosvd_factorizes_once(self, linalg_calls):
        rng = np.random.default_rng(3)
        t = lt.DenseTensor(rng.standard_normal((7, 16)))
        for ranks in [(2, 3), (7, 7), lt.TruncationRule.tail_energy(0.5)]:
            lt.hosvd(t, ranks)
        lt.tt_svd(t, [2])
        lt.tt_svd(t, [5])
        # mode 0 once, the wide 7 x 16 unfolding as R^T from a QR of its transpose, which TT's one step
        # reads too; mode 1's 16 x r_0 matrix once per r_0 kept, 2 then 7 (the tolerance keeps 7 too)
        assert _svds(linalg_calls) == [(7, 7), (16, 2), (16, 7)]

    def test_brownian_bridge_decompose_factorizes_once(self, tmp_path, linalg_calls):
        raw = {"experiment": "decompose", "function": {"id": "brownian_bridge"},
               "grid": {"points_per_axis": 64}, "tolerance": 1e-6}
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        # a symmetric kernel's weighted sample equals its transpose: one eigh, no SVD
        assert linalg_calls == [("eigh", (64, 64))]

    def test_symmetric_two_mode_hosvd_makes_one_eigh(self, linalg_calls):
        t = lt.sample(lt.make_function("abs_diff"), lt.GridSpec(33, "gauss-legendre"))
        norm = lt.frobenius_norm(t)
        linalg_calls.clear()  # the Gauss-Legendre nodes' eigvalsh
        for ranks in [(5, 9), (9, 5), (33, 33), lt.TruncationRule.tail_energy(1e-3 * norm)]:
            d = lt.hosvd(t, ranks)
            assert lt.tucker_error(t, d) <= d.tail_bound() + 1e-10 * norm
        # mode 1's matrix A^T U_r = U_r Λ_r is factorized by cutting mode 0's to r: no solver call
        assert linalg_calls == [("eigh", (33, 33))]

    def test_non_symmetric_two_mode_decompose_factorizes_once(self, tmp_path, linalg_calls):
        raw = {"experiment": "decompose", "function": {"id": "weighted_exp", "m": 2, "gamma": [1, 0.5]},
               "grid": {"points_per_axis": 64}, "tolerance": 1e-6}
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        # one SVD per step: the mode-0 unfolding, then mode 1's 64 x r_0 matrix, r_0 = 1
        assert linalg_calls == [("svd", (64, 64)), ("svd", (64, 1))]

    @pytest.mark.usefixtures("full_rank")
    @pytest.mark.parametrize("fmt", sorted(hz._FORMAT_NAMES))
    def test_two_mode_rank_vs_eps_factorizes_once(self, tmp_path, linalg_calls, fmt):
        assert hz.run(hz.parse_config(_rank_vs_eps(fmt, m=2)), tmp_path).exit_code == 0
        # TT reads only the mode-0 unfolding; Tucker also mode 1's 8 x r_0 matrix once per r_0 kept (2, 4, 8)
        assert _svds(linalg_calls) == [(8, 8)] + ([(8, 2), (8, 4), (8, 8)] if fmt == "tucker" else [])

    def test_two_mode_compare_formats_factorizes_once(self, tmp_path, linalg_calls):
        raw = {"experiment": "compare-formats", "function": {"id": "weighted_exp", "m": 2},
               "grid": {"points_per_axis": 6}, "tolerance": 1e-6}
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        # Tucker's two steps, mode 1's matrix 6 x r_0 with r_0 = 1; TT's first step is mode 0
        assert _svds(linalg_calls) == [(6, 6), (6, 1)]


# the cost of rank 1 everywhere: one core entry (Tucker), or r_1 + r_1 r_2 + r_2 r_3 = 3 (TT, see `tt_cost`)
@pytest.mark.parametrize("fmt, ranks, cost", [("tucker", "1x1x1x1", "1"), ("tt", "1x1x1", "3")])
def test_a_separable_rank_vs_eps_stays_at_rank_one(tmp_path, linalg_calls, fmt, ranks, cost):
    """A guard on the cost of rank-vs-eps on a numerically rank-1 tensor, whatever ranks its schedule asks for.

    Each step keeps rank 1, its usable rank, so one build serves every epsilon, and no step factorizes a
    matrix larger than the 16 x 16 R^T the wide 16 x 16^3 mode-0 unfolding is reduced to.
    """
    raw = {"experiment": "rank-vs-eps", "function": {"id": "rank_one", "m": 4}, "grid": {"points_per_axis": 16},
           "format": fmt, "scheduler": {"epsilon": 0.5, "k": 1.0, "dims": [1] * 4},
           "epsilons": [0.5 ** i for i in range(1, 6)]}
    report = hz.run(hz.parse_config(raw), tmp_path)
    assert report.exit_code == 0
    assert _csv_column(tmp_path / "rank_vs_eps.csv", "ranks") == [ranks] * 5
    assert _csv_column(tmp_path / "rank_vs_eps.csv", "cost") == [cost] * 5
    assert f"- 5 epsilon values, 1 decompositions, format {fmt}" in report.summary_lines
    factorized = [shape for name, shape in linalg_calls if name in ("svd", "eigh")]
    assert factorized and all(max(shape) <= 16 for shape in factorized), factorized


@pytest.fixture
def builds(monkeypatch):
    """Names of the builder and exact-error calls the harness makes, in order."""
    calls = []
    for name in ("hosvd", "tt_svd", "tucker_error", "tt_error"):
        def counting(*args, _name=name, _original=getattr(hz, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(hz, name, counting)
    return calls


@pytest.fixture
def checked(monkeypatch):
    """Every measurement the harness checks, one per row, reused or built."""
    rows = []
    original = hz._measure

    def recording(*args, **kwargs):
        records = original(*args, **kwargs)
        rows.extend(records)
        return records

    monkeypatch.setattr(hz, "_measure", recording)
    return rows


def _assert_rows_equal_fresh_builds(raw, rows):
    """Each row's ranks, error and bound, bit for bit, from a fresh build on a new tensor at its ranks."""
    config = hz.parse_config(raw)
    fmt = "tt" if config.format == "tt-bidir" else config.format  # the legacy name runs tt's sweep
    errors = {"tucker": lt.tucker_error, "tt": lt.tt_error}
    for ranks, error, bound, *_ in rows:
        t = hz._sample_tensor(config)
        d = BUILDERS[fmt](t, list(ranks))
        assert d.ranks == ranks
        assert errors[fmt](t, d) == error
        assert d.tail_bound() + 1e-10 * lt.frobenius_norm(t) == bound


@pytest.mark.usefixtures("full_rank")
class TestRankVsEpsReuse:
    """rank-vs-eps builds and measures each distinct decomposition once: a row reuses any earlier build
    whose steps would each keep what they kept, the smaller of its rank and that step's usable rank."""

    @pytest.mark.parametrize("fmt", ["tucker", "tt"])
    def test_saturated_epsilons_reuse_the_previous_row(self, tmp_path, builds, checked, fmt):
        raw = _rank_vs_eps(fmt)
        report = hz.run(hz.parse_config(raw), tmp_path)
        # The third epsilon asks for 8 on the first mode or bond, all its spectrum holds; the fourth asks
        # for 16, which that step of the third's build would cut to 8, so it and the last two reuse that build.
        assert builds == {"tucker": ["hosvd", "tucker_error"], "tt": ["tt_svd", "tt_error"]}[fmt] * 3
        assert f"- 6 epsilon values, 3 decompositions, format {fmt}" in report.summary_lines
        assert len(checked) == 6
        _assert_rows_equal_fresh_builds(raw, checked)

    def test_summary_counts_epsilons_and_decompositions(self, tmp_path):
        raw = {**_rank_vs_eps("tt"), "epsilons": [0.5 * 0.5 ** i for i in range(7)]}
        report = hz.run(hz.parse_config(raw), tmp_path)
        assert "- 7 epsilon values, 3 decompositions, format tt" in report.summary_lines

    @pytest.mark.parametrize("fmt", ["tucker", "tt"])
    def test_a_repeated_epsilon_reuses_its_earlier_build(self, tmp_path, builds, checked, fmt):
        raw = {**_rank_vs_eps(fmt), "epsilons": [0.5, 0.125, 0.5]}
        report = hz.run(hz.parse_config(raw), tmp_path)
        # the third row's ranks are the first's, not the second's: it reuses the first build
        assert builds == {"tucker": ["hosvd", "tucker_error"], "tt": ["tt_svd", "tt_error"]}[fmt] * 2
        assert f"- 3 epsilon values, 2 decompositions, format {fmt}" in report.summary_lines
        rows = (tmp_path / "rank_vs_eps.csv").read_text().splitlines()[2:]
        assert rows[2] == rows[0] != rows[1]
        assert checked[2] == checked[0]
        _assert_rows_equal_fresh_builds(raw, checked)

    @pytest.mark.parametrize("fmt, requested, kept, built", [
        # rows 2 and 3 change an uncut mode's request; rows 4 and 5 ask a cut mode for at least
        # what it kept, and row 6 for less
        ("tucker", [(2, 2, 2, 2), (2, 2, 2, 3), (9, 2, 2, 3), (10, 2, 2, 3), (8, 2, 2, 3), (7, 2, 2, 3)],
         [(2, 2, 2, 2), (2, 2, 2, 3), (8, 2, 2, 3), (8, 2, 2, 3), (8, 2, 2, 3), (7, 2, 2, 3)], 4),
        # bond 2 is cut to 2 * 8 and then asked for less than it kept; then uncut bond 1 changes
        ("tt", [(2, 100, 8), (2, 50, 8), (2, 16, 8), (2, 15, 8), (3, 15, 8)],
         [(2, 16, 8), (2, 16, 8), (2, 16, 8), (2, 15, 8), (3, 15, 8)], 3),
        # the last bond is cut to 8 and then asked for less; then bond 1 changes, under either name
        ("tt-bidir", [(2, 100, 100), (2, 20, 9), (2, 20, 7), (1, 20, 7)],
         [(2, 16, 8), (2, 16, 8), (2, 16, 7), (1, 8, 7)], 3),
        ("tt", [(2, 100, 100), (2, 20, 9), (2, 20, 7), (1, 20, 7)],
         [(2, 16, 8), (2, 16, 8), (2, 16, 7), (1, 8, 7)], 3),
    ])
    def test_a_changed_or_lowered_request_rebuilds(self, tmp_path, monkeypatch, builds, checked,
                                                    fmt, requested, kept, built):
        raw = {**_rank_vs_eps(fmt), "epsilons": [0.5 ** i for i in range(1, len(requested) + 1)]}
        schedules = dict(zip(raw["epsilons"], requested))
        monkeypatch.setattr(hz, "_schedule_ranks_for",
                            lambda config, eps: SimpleNamespace(ranks=schedules[eps], regime="stub"))
        assert hz.run(hz.parse_config(raw), tmp_path).exit_code == 0
        assert len(builds) == 2 * built
        assert [measured[0] for measured in checked] == kept
        _assert_rows_equal_fresh_builds(raw, checked)


def test_a_build_of_one_format_is_never_reused_for_the_other(tmp_path):
    # TT's two bond ranks, each capped at its usable rank, equal its kept ranks: a Tucker point that
    # matched them by its leading ranks would take the TT build
    t = lt.DenseTensor(np.random.default_rng(0).standard_normal((4, 4, 4)))
    report = hz.ExperimentReport("compare-formats", tmp_path)
    tt, tucker = hz._measure(report, t, [("tt", [2, 2]), ("tucker", [2, 2, 2])])
    assert (tt.ranks, tucker.ranks) == ((2, 2), (2, 2, 2))


def _arrays(fmt, d):
    """Every array a decomposition holds: factors and core, or cores; and the spectra."""
    if fmt == "tucker":
        return [*d.factors, d.core, *(s.values for s in d.mode_spectra)]
    return [*d.cores, *(s.values for s in d.spectra)]


def _slots(m):
    """Every slot a tensor of m modes can memoize: one per Tucker and TT step.

    TT's forward step 0 factorizes the mode-0 unfolding, so it reads Tucker's ("mode", 0).
    """
    return {("mode", j) for j in range(m)} | {("forward", i) for i in range(1, m - 1)}


@st.composite
def _tensor_and_runs(draw):
    symmetric = draw(st.booleans())  # a two-mode v + v^T with the same weights on both modes
    if symmetric:
        extents = [draw(st.integers(1, 4))] * 2
    else:
        extents = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    m = len(extents)
    weighted = draw(st.booleans())
    runs = draw(st.lists(st.tuples(
        st.sampled_from(sorted(BUILDERS)),
        st.one_of(st.lists(st.integers(1, 6), min_size=m, max_size=m), st.floats(0.0, 1.2)),
    ), min_size=1, max_size=6))
    return extents, symmetric, weighted, draw(st.integers(0, 2 ** 16)), runs


@settings(max_examples=60, deadline=None)
@given(_tensor_and_runs())
def test_memoized_decompositions_equal_fresh_ones(case):
    extents, symmetric, weighted, seed, runs = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(extents)
    weights = [rng.uniform(0.5, 2.0, size=n) for n in extents] if weighted else None
    if symmetric:
        values = values + values.T
        weights = weights and [weights[0]] * 2
    t = lt.DenseTensor(values, weights)
    norm = lt.frobenius_norm(t)
    for fmt, ranks in runs:
        if isinstance(ranks, float):
            rule = lt.TruncationRule.tail_energy(ranks * norm)
        else:
            rule = ranks if fmt == "tucker" else ranks[:-1]
        got = BUILDERS[fmt](t, rule)
        fresh = BUILDERS[fmt](lt.DenseTensor(values, weights), rule)
        assert got.ranks == fresh.ranks
        for a, b in zip(_arrays(fmt, got), _arrays(fmt, fresh), strict=True):
            assert np.array_equal(a, b)
        assert set(t._factorizations) <= _slots(len(extents))
        if symmetric:  # mode 1 is mode 0 cut to the rank kept, and takes no entry
            assert set(t._factorizations) == {("mode", 0)}
            if fmt == "tucker":
                r0, r1 = got.ranks
                assert np.array_equal(got.factors[1], got.factors[0][:, :r1])
                assert np.array_equal(got.mode_spectra[1].values, got.mode_spectra[0].values[:r0])

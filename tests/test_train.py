import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import lrtensor as lt
import lrtensor.svd as svd
from oracles import mode_unfolding


def random_tensor(rng, extents, weighted=False):
    values = rng.standard_normal(extents)
    weights = None
    if weighted:
        weights = [rng.random(n) + 0.1 for n in extents]
    return lt.DenseTensor(values, mode_weights=weights)


class TestExactness:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_full_rank_reconstruction(self, weighted):
        rng = np.random.default_rng(2)
        t = random_tensor(rng, (3, 4, 2, 3), weighted=weighted)
        d = lt.tt_svd(t)
        assert lt.tt_error(t, d) <= 1e-12 * lt.frobenius_norm(t)

    def test_rank_one_tensor_all_bonds_one(self):
        rng = np.random.default_rng(4)
        vecs = [rng.standard_normal(n) for n in (4, 3, 5, 2)]
        values = np.einsum("i,j,k,l->ijkl", *vecs)
        t = lt.DenseTensor(values)
        d = lt.tt_svd(t, ranks=(1, 1, 1))
        assert lt.tt_error(t, d) <= 1e-12 * lt.frobenius_norm(t)

    def test_two_term_sum_exact_at_rank_two(self):
        rng = np.random.default_rng(8)
        a = [rng.standard_normal(4) for _ in range(3)]
        b = [rng.standard_normal(4) for _ in range(3)]
        values = np.einsum("i,j,k->ijk", *a) + np.einsum("i,j,k->ijk", *b)
        t = lt.DenseTensor(values)
        d = lt.tt_svd(t, ranks=(2, 2))
        assert lt.tt_error(t, d) <= 1e-12 * lt.frobenius_norm(t)


class TestErrorBound:
    def test_error_within_root_sum_of_step_tails(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            t = random_tensor(rng, (4, 4, 4, 4), weighted=trial % 2 == 1)
            ranks = tuple(rng.integers(1, 5, size=3))
            d = lt.tt_svd(t, ranks=ranks)
            assert lt.tt_error(t, d) <= d.tail_bound() + 1e-12

    def test_step_spectra_telescope(self):
        # the kept energy after step j equals the total energy seen at
        # step j+1: truncation removes tail mass, nothing else
        rng = np.random.default_rng(23)
        t = random_tensor(rng, (4, 3, 4, 3))
        d = lt.tt_svd(t, ranks=(3, 2, 3))
        for j in range(len(d.spectra) - 1):
            r = d.ranks[j]
            kept = float(np.sum(d.spectra[j].values[:r] ** 2))
            seen_next = float(np.sum(d.spectra[j + 1].values ** 2))
            assert kept == pytest.approx(seen_next, rel=1e-10)


class TestStructure:
    def test_boundary_and_bond_shapes(self):
        rng = np.random.default_rng(6)
        t = random_tensor(rng, (3, 4, 5, 2))
        d = lt.tt_svd(t, ranks=(2, 3, 2))
        assert d.cores[0].shape == (1, 3, 2)
        assert d.cores[-1].shape == (2, 2, 1)
        for left, right in zip(d.cores, d.cores[1:]):
            assert left.shape[2] == right.shape[0]

    def test_left_orthogonal_cores(self):
        rng = np.random.default_rng(10)
        t = random_tensor(rng, (4, 4, 4), weighted=True)
        d = lt.tt_svd(t, ranks=(3, 3))
        for core in d.cores[:-1]:
            mat = core.reshape(-1, core.shape[2])
            np.testing.assert_allclose(
                mat.T @ mat, np.eye(core.shape[2]), atol=1e-12
            )

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("extents, ranks", [
        ((6,), ()), ((5, 4), (2,)), ((3, 4, 2, 3), (2, 3, 2)), ((2, 3, 4, 3, 2), (2, 2, 3, 2)),
    ], ids=["one-mode", "two-mode", "four-mode", "five-mode"])
    def test_last_core_is_the_last_remainder(self, extents, ranks, weighted):
        # the left-orthonormal cores before it, contracted to a matrix L, project the weighted
        # values: the last core is L^T A, with A the values as (n_0 ... n_{m-2}) x n_{m-1}
        rng = np.random.default_rng(sum(extents))
        t = random_tensor(rng, extents, weighted=weighted)
        d = lt.tt_svd(t, ranks=ranks)
        left = np.ones((1, 1))
        for core in d.cores[:-1]:
            left = np.tensordot(left, core, axes=1).reshape(-1, core.shape[2])
        a = t.weighted_values().reshape(-1, extents[-1])
        last = d.cores[-1]
        assert last.shape == (left.shape[1], extents[-1], 1)
        np.testing.assert_allclose(last[:, :, 0], left.T @ a, atol=1e-12 * np.linalg.norm(a))

    def test_order_of_axes_changes_ranks(self):
        rng = np.random.default_rng(16)
        a = [rng.standard_normal(4) for _ in range(2)]
        b = [rng.standard_normal(4) for _ in range(2)]
        # rank-2 coupling between axes 0 and 2, axis 1 trivial
        values = np.einsum("i,k->ik", a[0], a[1]) + np.einsum(
            "i,k->ik", b[0], b[1]
        )
        ones = np.ones(4)
        t3 = lt.DenseTensor(np.einsum("ik,j->ijk", values, ones))
        norm = lt.frobenius_norm(t3)
        # with the trivial axis in the middle both bonds must carry rank 2
        assert lt.tt_error(t3, lt.tt_svd(t3, ranks=(2, 2))) <= 1e-12 * norm
        assert lt.tt_error(t3, lt.tt_svd(t3, ranks=(2, 1))) > 1e-6 * norm
        # moving the coupled axes next to each other drops the second bond
        t3p = lt.DenseTensor(np.einsum("ik,j->ikj", values, ones))
        assert lt.tt_error(t3p, lt.tt_svd(t3p, ranks=(2, 1))) <= 1e-12 * norm


class TestRankValidation:
    def test_over_large_rank_keeps_the_steps_full_rank(self):
        # a given rank is an upper limit: each mode or bond keeps at most
        # the rank of its step's matrix (9 x 2 here, 3 x 9 at bond 1 below)
        rng = np.random.default_rng(18)
        t = random_tensor(rng, (9, 2))
        for ranks in ((9, 2), (10, 2)):
            assert lt.hosvd(t, ranks).ranks == (2, 2)
        t = random_tensor(rng, (3, 3, 3))
        assert lt.tt_svd(t, ranks=(50, 2)).ranks == (3, 2)

    def test_wrong_rank_count(self):
        rng = np.random.default_rng(20)
        t = random_tensor(rng, (3, 3, 3))
        with pytest.raises(ValueError):
            lt.tt_svd(t, ranks=(2,))


class TestMatrixCollapse:
    def test_two_modes_equals_truncated_svd(self):
        rng = np.random.default_rng(22)
        t = random_tensor(rng, (8, 6), weighted=True)
        m = mode_unfolding(t, 0)
        for r in (1, 3, 5):
            d = lt.tt_svd(t, ranks=(r,))
            tsvd = lt.truncated_svd(m, lt.TruncationRule.fixed_rank(r))
            assert lt.tt_error(t, d) == pytest.approx(tsvd.tail, abs=1e-12)
            np.testing.assert_allclose(
                d.spectra[0].values, tsvd.full_spectrum.values, atol=1e-12
            )


class TestCost:
    def test_examples(self):
        assert lt.tt_cost((10, 100)) == 10 + 10 * 100
        assert lt.tt_cost((5,)) == 5
        assert lt.tt_cost(()) == 0
        assert lt.tt_cost((2, 3, 4)) == 2 + 6 + 12


def test_train_alone_owns_the_step_memo():
    # the tensor only holds the memo's dict, and `svd` factorizes matrices, never a tensor's step
    assert [name for name, _ in inspect.getmembers(lt.DenseTensor, callable) if "factoriz" in name] == []
    source = inspect.getsource(svd)
    assert "DenseTensor" not in source and "mode_unfolding" not in source


def _identifiers(node) -> set:
    """The identifiers `node` names: variables, attributes, keyword arguments, and strings that are one identifier."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg:
            found.add(sub.arg)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            found.add(sub.value)
    return found


def test_the_step_memo_has_one_reader():
    # the tensor declares the memo's dict, and the step loop alone reads and fills it
    naming = set()
    for path in sorted(Path(lt.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if "_factorizations" in _identifiers(node):
                naming.add(f"{path.stem}.{getattr(node, 'name', node.lineno)}")
    assert naming == {"core.DenseTensor", "train._sweep"}

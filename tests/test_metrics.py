"""Permutation-invariant structure metrics."""

import numpy as np
import pytest

from ctfactor import Structure, hamming_distance
from ctfactor.numerics import philox
from oracles import TooLarge, brute_force_metric, column_indicators, dense_lsa_metric


def structure_of(p, cols):
    """Build a structure from per-column child lists."""
    support = frozenset((i, j) for j, rows in enumerate(cols) for i in rows)
    return Structure(p=p, d=len(cols), support=support)


def random_structure(gen, p, dmax):
    while True:
        d = int(gen.integers(1, dmax + 1))
        mat = gen.random((p, d)) < gen.uniform(0.15, 0.6)
        if np.all(mat.sum(axis=0) >= 1):
            support = frozenset((int(i), int(j)) for i, j in zip(*np.nonzero(mat)))
            return Structure(p=p, d=d, support=support)


class TestExactMatches:
    def test_identical(self):
        s = structure_of(6, [[0, 1, 2], [3, 4, 5]])
        rep = hamming_distance(s, s)
        assert rep.hd == 0 and rep.f1 == 1.0

    def test_column_permutation_is_free(self):
        a = structure_of(6, [[0, 1, 2], [3, 4, 5]])
        b = structure_of(6, [[3, 4, 5], [0, 1, 2]])
        rep = hamming_distance(a, b)
        assert rep.hd == 0 and rep.f1 == 1.0
        assert rep.best_permutation == (1, 0)


class TestPartialMatches:
    def test_one_missing_loading(self):
        truth = structure_of(15, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11, 12, 13, 14]])
        est = structure_of(15, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11, 12, 13]])
        rep = hamming_distance(est, truth)
        assert rep.hd == 1
        assert rep.f1 == pytest.approx(28 / 29)

    def test_moved_loading_costs_two(self):
        truth = structure_of(4, [[0, 1], [2, 3]])
        est = structure_of(4, [[0, 1, 2], [3]])
        assert hamming_distance(est, truth).hd == 2

    def test_extra_factor_padding(self):
        truth = structure_of(4, [[0, 1], [2, 3]])
        est = structure_of(4, [[0, 1], [2, 3], [1, 2]])
        rep = hamming_distance(est, truth)
        assert rep.hd == 2
        assert rep.d_hat == 3 and rep.d_true == 2

    def test_disjoint_supports(self):
        a = structure_of(4, [[0, 1]])
        b = structure_of(4, [[2, 3]])
        rep = hamming_distance(a, b)
        assert rep.hd == 4
        assert rep.f1 == 0.0

    def test_symmetry(self):
        gen = philox(42)
        for _ in range(50):
            p = int(gen.integers(2, 9))
            a = random_structure(gen, p, 5)
            b = random_structure(gen, p, 5)
            assert hamming_distance(a, b).hd == hamming_distance(b, a).hd
            assert hamming_distance(a, b).f1 == pytest.approx(hamming_distance(b, a).f1)


class TestBruteForceAgreement:
    def test_random_pairs(self):
        gen = philox(7)
        for _ in range(200):
            p = int(gen.integers(2, 9))
            a = random_structure(gen, p, 6)
            b = random_structure(gen, p, 6)
            assert hamming_distance(a, b).hd == brute_force_metric(a, b, "hd")
            assert hamming_distance(a, b).f1 == pytest.approx(brute_force_metric(a, b, "f1"))

    def test_guard_on_many_columns(self):
        wide = structure_of(9, [[i] for i in range(9)])
        small = structure_of(9, [[0]])
        with pytest.raises(TooLarge):
            brute_force_metric(wide, small, "hd")


def random_columns(gen, variables, d):
    """``d`` non-empty random child lists drawn from ``variables``."""
    density = gen.uniform(0.02, 0.5)
    cols = []
    for _ in range(d):
        mask = gen.random(len(variables)) < density
        mask[gen.integers(len(variables))] = True
        cols.append([int(v) for v in np.asarray(variables)[mask]])
    return cols


def overlap_components(overlap):
    """Component id of every estimated row and true column of ``overlap > 0``."""
    d_hat, d = overlap.shape
    comp = list(range(d_hat + d))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for a, b in zip(*np.nonzero(overlap)):
        comp[find(int(a))] = find(d_hat + int(b))
    roots = [find(x) for x in range(d_hat + d)]
    return roots[:d_hat], roots[d_hat:]


class TestDenseLsaAgreement:
    """The per-component sparse metric against one padded dense solve."""

    def pairs(self, gen, n_pairs):
        for k in range(n_pairs):
            p = int(gen.integers(1, 41))
            kind = k % 4
            d_true = int(gen.integers(1, min(2 * p, 30) + 1))
            if kind == 0:  # general pair
                est = structure_of(p, random_columns(gen, range(p), int(gen.integers(1, 31))))
                truth = structure_of(p, random_columns(gen, range(p), d_true))
            elif kind == 1:  # trivial estimate, one column per variable
                est = structure_of(p, [[i] for i in range(p)])
                truth = structure_of(p, random_columns(gen, range(p), d_true))
            elif kind == 2:  # supports on disjoint variables: no overlap at all
                p = max(p, 2)
                cut = int(gen.integers(1, p))
                est = structure_of(p, random_columns(gen, range(cut), int(gen.integers(1, 10))))
                truth = structure_of(p, random_columns(gen, range(cut, p), d_true % 10 + 1))
            else:  # estimate built from the truth by dropping, adding and moving loadings
                truth = structure_of(p, random_columns(gen, range(p), d_true))
                cols = [list(c) for c in truth.child_sets()]
                gen.shuffle(cols)
                for c in cols:
                    if len(c) > 1 and gen.random() < 0.3:
                        c.pop(int(gen.integers(len(c))))
                    if gen.random() < 0.3:
                        c.append(int(gen.integers(p)))
                cols = [sorted(set(c)) for c in cols if gen.random() < 0.9] or [[0]]
                cols += random_columns(gen, range(p), int(gen.integers(0, 3)))
                est = structure_of(p, cols)
            yield est, truth

    def test_random_pairs_match_dense_oracle(self):
        gen = np.random.default_rng(20240611)
        seen = dict.fromkeys(
            ["fewer", "more", "zero_rows", "multi_parent", "no_overlap", "trivial"], 0
        )
        for n, (est, truth) in enumerate(self.pairs(gen, 400)):
            rep = hamming_distance(est, truth)
            ref = dense_lsa_metric(est, truth)
            assert rep.hd == ref.hd, f"pair {n}"
            assert rep.f1 == ref.f1, f"pair {n}"
            assert (rep.d_hat, rep.d_true) == (est.d, truth.d)

            overlap = column_indicators(est).T @ column_indicators(truth)
            perm = rep.best_permutation
            real = [b for b in perm if b is not None]
            assert len(real) == len(set(real)) == min(est.d, truth.d), f"pair {n}"
            matched = sum(int(overlap[a, b]) for a, b in enumerate(perm) if b is not None)
            assert 2 * matched == len(est.support) + len(truth.support) - rep.hd

            # pinned tie-break: columns not matched inside their own component
            # are paired in ascending index order, estimated with true
            comp_est, comp_true = overlap_components(overlap)
            across = [a for a, b in enumerate(perm) if b is None or comp_est[a] != comp_true[b]]
            inside = {perm[a] for a in range(est.d) if a not in across}
            true_left = sorted(set(range(truth.d)) - inside)
            for a, b in zip(across, true_left + [None] * len(across)):
                assert perm[a] == b, f"pair {n}"

            parents = [len(s) for s in est.parent_sets()]
            seen["fewer"] += est.d < truth.d
            seen["more"] += est.d > truth.d
            seen["zero_rows"] += min(parents) == 0
            seen["multi_parent"] += max(parents) > 1
            seen["no_overlap"] += not overlap.any()
            seen["trivial"] += est.d == est.p and all(n_pa == 1 for n_pa in parents)
        assert min(seen.values()) >= 20, seen

    def test_leftover_columns_pair_in_index_order(self):
        # estimated columns 1 and 3 match true columns 2 and 1; estimated
        # columns 0 and 2 overlap nothing, so 0 pairs with the leftover true
        # column 0 and 2 with padding
        est = structure_of(6, [[4], [0, 1], [5], [3]])
        truth = structure_of(6, [[2], [3], [0, 1]])
        rep = hamming_distance(est, truth)
        assert rep.best_permutation == (0, 2, None, 1)
        assert rep.hd == dense_lsa_metric(est, truth).hd == 3


class TestPseudometric:
    def test_triangle_inequality(self):
        gen = philox(13)
        for _ in range(100):
            p = int(gen.integers(2, 8))
            a, b, c = (random_structure(gen, p, 4) for _ in range(3))
            ab = hamming_distance(a, b).hd
            bc = hamming_distance(b, c).hd
            ac = hamming_distance(a, c).hd
            assert ac <= ab + bc

    def test_equivalent_but_unequal_structures_at_zero(self):
        a = structure_of(3, [[0], [1, 2]])
        b = structure_of(3, [[1, 2], [0]])
        assert a != b
        assert hamming_distance(a, b).hd == 0


class TestReportShape:
    def test_fields_and_json(self):
        a = structure_of(4, [[0, 1], [2, 3]])
        b = structure_of(4, [[2, 3], [0, 1]])
        rep = hamming_distance(a, b)
        doc = rep.to_json_dict()
        assert doc == {
            "hd": 0,
            "f1": 1.0,
            "best_permutation": [1, 0],
            "d_hat": 2,
            "d_true": 2,
        }

    def test_mismatched_p_rejected(self):
        from ctfactor.errors import DimensionMismatch

        a = structure_of(3, [[0, 1]])
        b = structure_of(4, [[0, 1]])
        with pytest.raises(DimensionMismatch):
            hamming_distance(a, b)

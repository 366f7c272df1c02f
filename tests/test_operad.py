import itertools

import numpy as np
import pytest

from oplax import operad, suites
from oplax.operad import (DimensionMismatchError, InvalidOperationError,
                          MultiOp, _bracket, _partial, _total, gerstenhaber,
                          graded_lie_residuals, partial_compose,
                          total_compose)

from test_gates import unsigned


def random_op(rng, dim, degree=None, max_degree=3):
    if degree is None:
        degree = int(rng.integers(1, max_degree + 1))
    return MultiOp(degree, dim, rng.uniform(-1, 1, (dim,) * (degree + 1)))


def brute_partial_compose(f, g, i):
    """Independent oracle: explicit index summation of the definition."""
    d = f.dim
    n = f.degree + g.reduced_degree
    sign = (-1.0) ** (i * g.reduced_degree)
    out = np.zeros((d,) * (n + 1))
    for idx in itertools.product(range(d), repeat=n + 1):
        k = idx[0]
        pre = idx[1:1 + i]
        mid = idx[1 + i:1 + i + g.degree]
        post = idx[1 + i + g.degree:]
        total = 0.0
        for s in range(d):
            total += f.coeffs[(k,) + pre + (s,) + post] * g.coeffs[(s,) + mid]
        out[idx] = sign * total
    return out


class TestPartialCompose:
    def test_identity_insertion_is_noop(self):
        rng = np.random.default_rng(1)
        f = random_op(rng, 3, degree=2)
        ident = MultiOp(1, 3, np.eye(3))
        for i in (0, 1):
            assert np.allclose(partial_compose(f, ident, i).coeffs, f.coeffs)

    def test_identity_outer(self):
        rng = np.random.default_rng(2)
        g = random_op(rng, 3, degree=3)
        ident = MultiOp(1, 3, np.eye(3))
        assert np.allclose(partial_compose(ident, g, 0).coeffs, g.coeffs)

    def test_scalar_multiplication_sign(self):
        # d=1: f = g = xy; inserting at slot 1 picks up (-1)^(1*1)
        f = MultiOp(2, 1, np.ones((1, 1, 1)))
        res = partial_compose(f, f, 1)
        assert res.degree == 3
        assert res.coeffs.ravel().tolist() == [-1.0]

    def test_against_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            f = random_op(rng, dim)
            g = random_op(rng, dim)
            i = int(rng.integers(0, f.degree))
            got = partial_compose(f, g, i).coeffs
            assert np.allclose(got, brute_partial_compose(f, g, i),
                               atol=1e-13)

    def test_degree_bookkeeping(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            f = random_op(rng, dim)
            g = random_op(rng, dim)
            i = int(rng.integers(0, f.degree))
            assert partial_compose(f, g, i).degree \
                == f.degree + g.reduced_degree

    def test_slot_out_of_range(self):
        f = MultiOp(2, 2, np.zeros((2, 2, 2)))
        with pytest.raises(InvalidOperationError):
            partial_compose(f, f, 2)

    def test_dim_mismatch(self):
        f = MultiOp(1, 2, np.eye(2))
        g = MultiOp(1, 3, np.eye(3))
        with pytest.raises(DimensionMismatchError):
            partial_compose(f, g, 0)


def reference_partial(f, g, i):
    """f o_i g by tensordot and moveaxis, the textbook contraction."""
    nf, ng = f.degree, g.degree
    sign = -1.0 if (i * g.reduced_degree) % 2 else 1.0
    raw = np.tensordot(f.coeffs, g.coeffs, axes=([i + 1], [0]))
    return sign * np.moveaxis(raw, range(nf, nf + ng),
                              range(i + 1, i + 1 + ng))


ALL_SHAPES = [(dim, nf, ng) for dim in (1, 2, 3)
              for nf in (1, 2, 3) for ng in (1, 2, 3)]


class TestBitwise:
    def test_partial_matches_tensordot_bitwise(self):
        rng = np.random.default_rng(12)
        for dim, nf, ng in ALL_SHAPES:
            f = random_op(rng, dim, degree=nf)
            g = random_op(rng, dim, degree=ng)
            for i in range(nf):
                assert np.array_equal(partial_compose(f, g, i).coeffs,
                                      reference_partial(f, g, i)), \
                    (dim, nf, ng, i)

    def test_total_and_bracket_match_slot_order_sums_bitwise(self):
        rng = np.random.default_rng(13)
        for dim, nf, ng in ALL_SHAPES:
            f = random_op(rng, dim, degree=nf)
            g = random_op(rng, dim, degree=ng)
            fg = reference_partial(f, g, 0)
            for i in range(1, nf):
                fg = fg + reference_partial(f, g, i)
            gf = reference_partial(g, f, 0)
            for i in range(1, ng):
                gf = gf + reference_partial(g, f, i)
            sign = (-1.0) ** (f.reduced_degree * g.reduced_degree)
            assert np.array_equal(total_compose(f, g).coeffs, fg)
            assert np.array_equal(gerstenhaber(f, g).coeffs,
                                  fg - sign * gf), (dim, nf, ng)

    @pytest.mark.parametrize("batch", (1, 2, 7))
    def test_stacked_kernel_matches_per_sample_bitwise(self, batch):
        """A leading batch axis composes each sample as the public API does,
        bit for bit."""
        rng = np.random.default_rng(15 + batch)
        for dim, nf, ng in ALL_SHAPES:
            F = rng.uniform(-1, 1, (batch,) + (dim,) * (nf + 1))
            G = rng.uniform(-1, 1, (batch,) + (dim,) * (ng + 1))
            partials = [_partial(F, nf, G, ng, i) for i in range(nf)]
            total = _total(F, nf, G, ng)
            bracket = _bracket(F, nf, G, ng)
            for b in range(batch):
                f, g = MultiOp(nf, dim, F[b]), MultiOp(ng, dim, G[b])
                where = (dim, nf, ng, b)
                for i in range(nf):
                    assert np.array_equal(partials[i][b],
                                          partial_compose(f, g, i).coeffs), \
                        where + (i,)
                assert np.array_equal(total[b],
                                      total_compose(f, g).coeffs), where
                assert np.array_equal(bracket[b],
                                      gerstenhaber(f, g).coeffs), where

    def test_small_integers_match_brute_force_exactly(self):
        rng = np.random.default_rng(14)
        for dim, nf, ng in ALL_SHAPES:
            f = MultiOp(nf, dim, rng.integers(-3, 4, (dim,) * (nf + 1)))
            g = MultiOp(ng, dim, rng.integers(-3, 4, (dim,) * (ng + 1)))
            brute = [brute_partial_compose(f, g, i) for i in range(nf)]
            for i in range(nf):
                assert (partial_compose(f, g, i).coeffs == brute[i]).all()
            assert (total_compose(f, g).coeffs == sum(brute)).all()


class TestTotalCompose:
    def test_unary_unary_is_matrix_product(self):
        rng = np.random.default_rng(5)
        A, B = rng.normal(size=(2, 3, 3))
        res = total_compose(MultiOp(1, 3, A), MultiOp(1, 3, B))
        assert np.allclose(res.coeffs, A @ B)

    def test_identity_insertions_sum(self):
        rng = np.random.default_rng(6)
        for degree in (1, 2, 3):
            f = random_op(rng, 3, degree=degree)
            res = total_compose(f, MultiOp(1, 3, np.eye(3)))
            assert np.allclose(res.coeffs, degree * f.coeffs)

    def test_scalar_multiplication_cancels(self):
        f = MultiOp(2, 1, np.ones((1, 1, 1)))
        assert total_compose(f, f).coeffs.ravel().tolist() == [0.0]


class TestGerstenhaber:
    def test_unary_unary_is_commutator(self):
        rng = np.random.default_rng(7)
        A, B = rng.normal(size=(2, 3, 3))
        res = gerstenhaber(MultiOp(1, 3, A), MultiOp(1, 3, B))
        assert np.allclose(res.coeffs, A @ B - B @ A)

    def test_self_bracket_unary_vanishes(self):
        rng = np.random.default_rng(8)
        f = MultiOp(1, 3, rng.normal(size=(3, 3)))
        assert np.allclose(gerstenhaber(f, f).coeffs, 0.0)

    def test_unary_binary_component_formula(self):
        # [M, mu]^i_jk = M^i_s mu^s_jk - mu^i_sk M^s_j - mu^i_js M^s_k
        rng = np.random.default_rng(9)
        M = rng.normal(size=(3, 3))
        mu = rng.normal(size=(3, 3, 3))
        got = gerstenhaber(MultiOp(1, 3, M), MultiOp(2, 3, mu)).coeffs
        want = np.zeros((3, 3, 3))
        for i, j, k in itertools.product(range(3), repeat=3):
            want[i, j, k] = sum(
                M[i, s] * mu[s, j, k] - mu[i, s, k] * M[s, j]
                - mu[i, j, s] * M[s, k]
                for s in range(3)
            )
        assert np.allclose(got, want, atol=1e-13)

    def test_graded_antisymmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            f = random_op(rng, dim)
            g = random_op(rng, dim)
            sign = (-1.0) ** (f.reduced_degree * g.reduced_degree)
            total = (gerstenhaber(f, g).coeffs
                     + sign * gerstenhaber(g, f).coeffs)
            assert np.max(np.abs(total)) <= 1e-12

    def test_graded_jacobi(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            f, g, h = (random_op(rng, dim) for _ in range(3))

            def sgn(u, v):
                return (-1.0) ** (u.reduced_degree * v.reduced_degree)

            t1 = sgn(f, h) * gerstenhaber(f, gerstenhaber(g, h)).coeffs
            t2 = sgn(g, f) * gerstenhaber(g, gerstenhaber(h, f)).coeffs
            t3 = sgn(h, g) * gerstenhaber(h, gerstenhaber(f, g)).coeffs
            scale = max(1.0, float(np.max(np.abs(t1))),
                        float(np.max(np.abs(t2))), float(np.max(np.abs(t3))))
            assert np.max(np.abs(t1 + t2 + t3)) / scale <= 1e-9


def smallest_rotation(degrees):
    """The cyclic rotation of a degree tuple that sorts first."""
    return min(degrees[k:] + degrees[:k] for k in range(len(degrees)))


def drawn_classes(rng, samples):
    """The (dim, smallest rotation of the degrees) of each sample, in draw
    order, from the operad suite's first draw from rng."""
    rows = rng.integers(1, 4, size=(samples, 4))
    return [(dim, *smallest_rotation(tuple(degrees)))
            for dim, *degrees in rows.tolist()]


def recorded_stacks(monkeypatch):
    """The shapes of the (F, G, H) stacks the operad suite composes, in
    order, recorded into the returned list as the suite runs."""
    stacks = []

    def recorded(F, G, H):
        stacks.append((F.shape, G.shape, H.shape))
        return graded_lie_residuals(F, G, H)

    monkeypatch.setattr(suites, "graded_lie_residuals", recorded)
    return stacks


def stack_class(shapes):
    """The (dim, deg f, deg g, deg h) of a recorded stack."""
    return (shapes[0][1],) + tuple(len(shape) - 2 for shape in shapes)


class TestCyclicJacobi:
    """J(f, g, h), J(g, h, f) and J(h, f, g) are the same three brackets
    summed in other orders, so the suite composes one rotation of each
    degree triple."""

    @pytest.mark.parametrize("dim", (1, 2, 3))
    def test_rotations_give_the_same_jacobi_residual(self, monkeypatch,
                                                     dim):
        """Exactly, on integer stacks: 0.0 as they are, and the same
        nonzero residual with the Koszul sign dropped from _partial."""
        rng = np.random.default_rng(17 + dim)
        F, G, H = (rng.integers(-3, 4, (4,) + (dim,) * (degree + 1))
                   .astype(float) for degree in (2, 2, 3))

        def jacobis():
            return [graded_lie_residuals(*stacks)[1]
                    for stacks in ((F, G, H), (G, H, F), (H, F, G))]

        assert jacobis() == [0.0] * 3
        monkeypatch.setattr(operad, "_partial", unsigned(_partial))
        first, *rest = jacobis()
        assert first > 0.0
        assert rest == [first] * 2


def reference_operad_residuals(seed, samples):
    """The operad suite's data composed one sample at a time through the
    MultiOp API: the same draws (dim and the three degrees of every sample
    in one call, the degrees rotated to their smallest cyclic order and the
    samples grouped by np.unique, then each group's coefficients of f, g
    and h in one call each)."""
    rng = np.random.default_rng(seed)
    groups, counts = np.unique(drawn_classes(rng, samples), axis=0,
                               return_counts=True)
    worst_anti, worst_jacobi = 0.0, 0.0
    for (dim, *degrees), count in zip(groups.tolist(), counts.tolist()):
        stacks = [rng.integers(-3, 4, size=(count,) + (dim,) * (degree + 1))
                  .astype(float) for degree in degrees]
        for coeffs in zip(*stacks):
            f, g, h = (MultiOp(c.ndim - 1, dim, c) for c in coeffs)
            fg = gerstenhaber(f, g)

            sign = -1.0 if (f.reduced_degree * g.reduced_degree) % 2 else 1.0
            anti = np.max(np.abs(fg.coeffs
                                 + sign * gerstenhaber(g, f).coeffs))
            worst_anti = max(worst_anti, float(anti))

            def ssign(u, v):
                return -1.0 if (u.reduced_degree * v.reduced_degree) % 2 \
                    else 1.0

            t1 = ssign(f, h) * gerstenhaber(f, gerstenhaber(g, h)).coeffs
            t2 = ssign(g, f) * gerstenhaber(g, gerstenhaber(h, f)).coeffs
            t3 = ssign(h, g) * gerstenhaber(h, gerstenhaber(f, g)).coeffs
            scale = max(np.max(np.abs(t1)), np.max(np.abs(t2)),
                        np.max(np.abs(t3)), 1.0)
            worst_jacobi = max(worst_jacobi,
                               float(np.max(np.abs(t1 + t2 + t3)) / scale))
    return worst_anti, worst_jacobi


class TestBatchedSuite:
    def test_residuals_do_not_depend_on_array_identity(self):
        """The same stack passed as f and g is composed like a copy."""
        rng = np.random.default_rng(16)
        F = rng.uniform(-1, 1, (4, 2, 2, 2))
        H = rng.uniform(-1, 1, (4, 2, 2))
        assert graded_lie_residuals(F, F, H) \
            == graded_lie_residuals(F, F.copy(), H)


    @pytest.mark.parametrize("seed", (3, 2024))
    @pytest.mark.parametrize("batch_bytes", (1, None, 1 << 30))
    def test_suite_equals_per_sample_loop(self, monkeypatch, seed,
                                          batch_bytes):
        """Any stacking budget (one sample per stack, the default, one
        stack per dim and cyclic degree class) gives the per-sample
        residuals: exact zeros, and with the Koszul sign dropped from
        _partial the same nonzero Jacobi residual; each stack holds one dim
        and degrees, its degrees in their smallest cyclic order, and keeps
        its Jacobi terms within BATCH_BYTES unless it is one sample, and
        the stacks hold every sample once."""
        if batch_bytes is not None:
            monkeypatch.setattr(suites, "BATCH_BYTES", batch_bytes)
        monkeypatch.setattr(suites, "OPERAD_SAMPLES", 300)
        stacks = recorded_stacks(monkeypatch)
        cases = {c.case_id: c for c in suites.operad_suite(seed).cases}
        anti, jacobi = reference_operad_residuals(seed, 300)
        assert cases["graded_antisymmetry"].residual == anti == 0.0
        assert cases["graded_jacobi_relative"].residual == jacobi == 0.0

        for shapes in stacks:
            (n, d), = {(shape[0], shape[1]) for shape in shapes}
            assert all(set(shape[1:]) == {d} for shape in shapes)
            degrees = stack_class(shapes)[1:]
            assert degrees == smallest_rotation(degrees)
            # a Jacobi term has degree deg f + deg g + deg h - 2
            assert n == 1 or n * 8 * d ** (sum(degrees) - 1) \
                <= suites.BATCH_BYTES
        assert sum(shapes[0][0] for shapes in stacks) == 300

        monkeypatch.setattr(operad, "_partial", unsigned(_partial))
        cases = {c.case_id: c for c in suites.operad_suite(seed).cases}
        anti, jacobi = reference_operad_residuals(seed, 300)
        assert cases["graded_antisymmetry"].residual == anti
        assert cases["graded_jacobi_relative"].residual == jacobi > 0.0

    @pytest.mark.parametrize("seed", (42, 1, 7, 1000, 2000))
    def test_rotation_keeps_coverage(self, monkeypatch, seed):
        """Every (dim, cyclic degree class) drawn is composed, and in every
        dim the (deg f, deg g) pairs that graded_antisymmetry sees still
        cover all six unordered pairs of degrees."""
        stacks = recorded_stacks(monkeypatch)
        suites.operad_suite(seed)
        composed = {stack_class(shapes) for shapes in stacks}
        assert composed == set(drawn_classes(np.random.default_rng(seed),
                                             suites.OPERAD_SAMPLES))
        pairs = set(itertools.combinations_with_replacement((1, 2, 3), 2))
        for dim in (1, 2, 3):
            assert {tuple(sorted(degrees[:2]))
                    for d, *degrees in composed if d == dim} == pairs

    def test_coefficients_are_small_integers(self, monkeypatch):
        """Every coefficient the suite composes is an integer in [-3, 3],
        held as a float64."""
        stacks = []

        def recorded(*operands):
            stacks.extend(operands)
            return graded_lie_residuals(*operands)

        monkeypatch.setattr(suites, "graded_lie_residuals", recorded)
        suites.operad_suite(42)
        assert sum(len(stack) for stack in stacks) \
            == 3 * suites.OPERAD_SAMPLES
        assert {stack.dtype for stack in stacks} == {np.dtype(float)}
        values = np.unique(np.concatenate([s.ravel() for s in stacks]))
        assert values.tolist() == list(range(-3, 4))

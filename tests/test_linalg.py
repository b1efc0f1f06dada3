import math

import numpy as np
import pytest

from noisy_sqp.linalg import (
    all_finite,
    as_vector,
    cg_steihaug,
    dense_kkt_solve,
    hypot,
    kkt_matrix,
    least_squares_multiplier,
    minres_iterate,
    minres_solve,
    norm2,
    norm_inf,
    smallest_singular_value,
)


def random_symmetric(rng, n, lo=0.5, hi=5.0):
    # controlled spectrum keeps the dense-oracle comparisons well posed
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)
    return (Q * eig) @ Q.T


class TestMinres:
    def test_identity_first_iterate(self):
        b = np.array([1.0, 2.0, 3.0])
        x, state = minres_iterate(lambda p: p, b)
        assert np.allclose(x, b)
        assert norm2(b - x) <= 1e-12

    def test_diagonal_system(self):
        A = np.diag([2.0, -3.0])
        rep = minres_solve(lambda p: A @ p, np.array([2.0, -3.0]), tol=1e-12)
        assert np.allclose(rep.solution, [1.0, 1.0], atol=1e-10)

    def test_kkt_shaped_vs_dense_lu(self):
        A = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
        b = np.array([1.0, 1.0, 0.0])
        rep = minres_solve(lambda p: A @ p, b, tol=1e-11)
        x_dense = np.linalg.solve(A, b)  # dense LU oracle
        assert np.max(np.abs(rep.solution - x_dense)) <= 1e-10

    def test_residual_report_recomputed(self):
        A = np.diag([1.0, 4.0, -2.0])
        b = np.array([1.0, 1.0, 1.0])
        rep = minres_solve(lambda p: A @ p, b, tol=1e-10)
        recomputed = np.max(np.abs(A @ rep.solution - b))
        assert abs(rep.residual_inf_norm - recomputed) <= 1e-12 * max(1.0, recomputed)

    def test_breakdown_on_zero_rhs(self):
        x, state = minres_iterate(lambda p: p, np.zeros(4))
        assert state.breakdown
        assert np.all(x == 0.0)

    def test_monotone_residual_and_dense_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            A = random_symmetric(rng, n)
            b = rng.standard_normal(n)
            state = None
            res_prev = np.inf
            x = None
            for _ in range(3 * n + 10):
                x, state = minres_iterate(lambda p: A @ p, b, state)
                res = norm2(A @ x - b)
                assert res <= res_prev * (1.0 + 1e-9) + 1e-13
                res_prev = res
                if res <= 1e-10 or state.breakdown:
                    break
            x_dense = np.linalg.solve(A, b)
            assert np.max(np.abs(x - x_dense)) <= 1e-8 * (1 + np.max(np.abs(x_dense)))


class TestCgSteihaug:
    def test_newton_point_interior(self):
        v, boundary, _ = cg_steihaug(lambda p: p, np.array([1.0, 0.0]), 10.0)
        assert np.allclose(v, [-1.0, 0.0], atol=1e-12)
        assert not boundary

    def test_boundary_clip(self):
        v, boundary, _ = cg_steihaug(lambda p: p, np.array([1.0, 0.0]), 0.5)
        assert np.allclose(v, [-0.5, 0.0], atol=1e-12)
        assert boundary

    def test_zero_gradient_returns_at_once(self):
        v, boundary, iters = cg_steihaug(lambda p: p, np.zeros(3), 1.0)
        assert v.tolist() == [0.0, 0.0, 0.0]
        assert (boundary, iters) == (False, 0)

    def test_negative_curvature_goes_to_the_boundary(self):
        # radius 2: a CG step along d with the negative alpha would land at
        # (0, 1) inside the region, so only the curvature exit reaches the boundary
        H = np.diag([1.0, -1.0])
        v, boundary, iters = cg_steihaug(lambda p: H @ p, np.array([0.0, 1.0]), 2.0)
        assert v.tolist() == [0.0, -2.0] and norm2(v) == 2.0
        assert boundary and iters == 1

    def test_least_squares_oracle(self):
        # dense oracle: min ||c + Jv|| has minimum-norm solution -J'(JJ')^-1 c
        J = np.array([[1.0, 2.0]])
        c = np.array([1.0])
        g = J.T @ c
        radius = 100.0 * np.sqrt(5.0)
        v, _, _ = cg_steihaug(lambda p: J.T @ (J @ p), g, radius)
        v_oracle = -J.T @ np.linalg.solve(J @ J.T, c)
        assert np.max(np.abs(v - v_oracle)) <= 1e-10
        assert norm2(c + J @ v) <= 1e-10

    def test_radius_and_cauchy_decrease_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 7))
            J = rng.standard_normal((m, n))
            c = rng.standard_normal(m)
            g = J.T @ c
            if norm2(g) < 1e-10:
                continue
            radius = float(rng.uniform(0.05, 5.0))
            v, _, _ = cg_steihaug(lambda p: J.T @ (J @ p), g, radius)
            assert norm2(v) <= radius * (1 + 1e-12)
            # independent Cauchy point: optimal step along -g inside the radius
            Hg = J.T @ (J @ g)
            alpha = float(g @ g) / float(g @ Hg) if float(g @ Hg) > 0 else radius
            alpha = min(alpha, radius / norm2(g))
            model = lambda z: float(g @ z) + 0.5 * float(z @ (J.T @ (J @ z)))
            assert model(v) <= model(-alpha * g) + 1e-12


def lsq(J, g):
    """The multiplier of one Jacobian, as a stack of one."""
    return least_squares_multiplier(J[None], g[None])[0]


class TestLeastSquaresMultiplier:
    def test_exact_in_range(self):
        y = lsq(np.array([[1.0, 0.0]]), np.array([-2.0, 0.0]))
        assert np.allclose(y, [2.0], atol=1e-9)

    def test_orthogonal_gradient(self):
        y = lsq(np.array([[1.0, 0.0]]), np.array([0.0, 3.0]))
        assert np.allclose(y, [0.0], atol=1e-9)

    def test_duplicated_rows(self):
        J = np.array([[1.0, 0.0], [1.0, 0.0]])
        g = np.array([-2.0, 0.0])
        y = lsq(J, g)
        assert norm2(g + J.T @ y) <= 1e-8
        assert abs(y[0] + y[1] - 2.0) <= 1e-6
        # brute-force grid oracle: no nearby y does meaningfully better
        rng = np.random.default_rng(3)
        best = min(norm2(g + J.T @ (y + rng.standard_normal(2)))
                   for _ in range(1000))
        assert norm2(g + J.T @ y) <= best + 1e-8

    def test_cloud_optimality_property(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 8))
            J = rng.standard_normal((m, n))
            g = rng.standard_normal(n)
            y = lsq(J, g)
            res = norm2(g + J.T @ y)
            cloud = min(norm2(g + J.T @ (y + 0.5 * rng.standard_normal(m)))
                        for _ in range(1000))
            assert res <= cloud + 1e-8


    def test_stack_equals_per_matrix_calls_bitwise(self):
        # each row's multiplier equals its stack of one, so best_iterate's chunks
        # may split a trace anywhere; a stack mixing full-rank Jacobians with
        # rank-deficient ones (duplicated and zero rows) that take the ridge path
        rng = np.random.default_rng(11)
        for m, n in ((1, 2), (2, 3), (3, 10), (4, 6)):
            k = 40
            J = rng.standard_normal((k, m, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1, 1))
            g = rng.standard_normal((k, n))
            for i in range(0, k, 3):
                J[i, -1] = J[i, 0] if m > 1 else 0.0
            w = np.linalg.eigvalsh(J @ J.transpose(0, 2, 1))
            ridged = w[:, 0] <= 1e-12 * np.maximum(1.0, w[:, -1])
            assert ridged.any() and not ridged.all()
            Y = least_squares_multiplier(J, g)
            assert Y.shape == (k, m)
            for i in range(k):
                assert Y[i].tobytes() == lsq(J[i], g[i]).tobytes()


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_singular_value(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_row(self):
        assert smallest_singular_value(np.array([[1.0, 0.0], [1.0, 0.0]])) <= 1e-12

    def test_random_vs_svd_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            J = rng.standard_normal((3, 5))
            mine = smallest_singular_value(J)
            oracle = np.linalg.svd(J, compute_uv=False)[-1]
            assert abs(mine - oracle) <= 1e-8


class TestKktMatrix:
    def test_equals_the_hand_built_blocks(self):
        rng = np.random.default_rng(5)
        H = random_symmetric(rng, 4)
        J = rng.standard_normal((2, 4))  # m < n
        K = kkt_matrix(H, J)
        assert K.shape == (6, 6)
        assert np.array_equal(K, np.block([[H, J.T], [J, np.zeros((2, 2))]]))

    def test_returns_a_new_array(self):
        H, J = np.eye(2), np.array([[1.0, 0.0]])
        K = kkt_matrix(H, J)
        K[:] = 7.0
        assert np.array_equal(kkt_matrix(H, J)[2], [1.0, 0.0, 0.0])
        assert np.array_equal(H, np.eye(2))


class TestDenseKktSolve:
    def test_hand_elimination_oracle(self):
        u, y = dense_kkt_solve(np.eye(2), np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
        assert np.allclose(u, [0.0, -1.0], atol=1e-10)
        assert np.allclose(y, [0.0], atol=1e-10)

    def test_zero_rhs(self):
        u, y = dense_kkt_solve(np.eye(2), np.array([[1.0, 0.0]]), np.zeros(2))
        assert np.all(u == 0.0) and np.all(y == 0.0)

    def test_rank_deficient_unique_u(self):
        J = np.array([[1.0, 0.0], [1.0, 0.0]])
        u, y = dense_kkt_solve(np.eye(2), J, np.array([0.0, 1.0]))
        assert np.allclose(u, [0.0, -1.0], atol=1e-8)
        assert norm2(J @ u) <= 1e-8

    def test_saddle_matrix_singular_after_the_ridge_raises(self):
        # J has full rank, so K gets no ridge; H = diag(1, 0) leaves K's second row
        # zero, which no (2,2) ridge would change either
        with pytest.raises(np.linalg.LinAlgError):
            dense_kkt_solve(np.diag([1.0, 0.0]), np.array([[1.0, 0.0]]), np.array([1.0, 2.0]))

    def test_swapped_saddle_matrix_raises(self):
        # J has full rank, so K = [[0, 1, 1], [1, 0, 0], [1, 0, 0]] gets no ridge and
        # the solve raises; a ridge on its (2,2) block would make it solvable, |y| ~ 1e12
        with pytest.raises(np.linalg.LinAlgError):
            dense_kkt_solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 0.0]]),
                            np.array([1.0, 2.0]))

    def test_back_substitution_property(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 8))
            H = random_symmetric(rng, n, lo=0.5, hi=3.0)
            H = H @ H.T + 0.5 * np.eye(n)  # SPD
            J = rng.standard_normal((m, n))
            rhs = rng.standard_normal(n)
            u, y = dense_kkt_solve(H, J, rhs)
            top = H @ u + J.T @ y + rhs
            scale = 1 + np.max(np.abs(rhs))
            assert np.max(np.abs(top)) <= 1e-8 * scale
            assert np.max(np.abs(J @ u)) <= 1e-8 * scale


class TestNormInf:
    """The argmax entry is exactly the ``maximum.reduce`` max-abs, NaN included."""

    def _cases(self):
        rng = np.random.default_rng(5)
        J = rng.standard_normal((4, 10))
        yield from (np.array([-3.5]), np.array([-0.0]), np.array([0.0, -0.0]),
                    np.array([1.0, np.nan, -7.0]), np.array([np.nan, np.inf]),
                    np.array([-np.inf, 2.0]), np.array([np.inf, -np.inf, np.nan]),
                    J, J.T, J[:, ::3], -J.T, rng.standard_normal(14) * 1e300)
        for _ in range(200):
            x = rng.standard_normal(int(rng.integers(1, 15))) * 10.0 ** rng.integers(-300, 300)
            x[rng.integers(x.size)] = rng.choice([np.nan, np.inf, -np.inf, -0.0, x[0]])
            yield x

    def test_bitwise_equal_to_maximum_reduce(self):
        for x in self._cases():
            got = norm_inf(x)
            ref = np.maximum.reduce(abs(x), axis=None)
            assert type(got) is float
            assert np.float64(got).tobytes() == ref.tobytes(), x

    def test_integer_matrix_input(self):
        # an integer matrix: its max-abs entry, as a float
        assert norm_inf(np.array([[1, -4], [2, 3]])) == 4.0


class TestHypot:
    """MINRES's hypot keeps np.hypot's bits (libm's hypot), overflow and NaN signs included."""

    def _pairs(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(20000) * 10.0 ** rng.integers(-320, 300, 20000)
        b = rng.standard_normal(20000) * 10.0 ** rng.integers(-320, 300, 20000)
        yield from zip(a.tolist(), b.tolist())
        nan = float("nan")
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -3.0, 1.5e308, -1.5e308,
                    math.inf, -math.inf, nan, -nan, math.inf - math.inf]
        yield from ((x, y) for x in specials for y in specials)

    def test_bitwise_equal_to_np_hypot(self):
        assert math.copysign(1.0, math.inf - math.inf) == -1.0  # the sign that must be kept
        with np.errstate(over="ignore"):  # 1.5e308 twice overflows
            for a, b in self._pairs():
                got, ref = hypot(a, b), np.hypot(a, b)
                assert type(got) is float
                assert np.float64(got).tobytes() == ref.tobytes(), (a, b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFiniteness:
    """The Python-float sum of the entries decides; the scan runs only after
    an overflowing sum, and no overflow warns."""

    def test_large_finite_entries_pass(self):
        for x in (np.full(14, 1e200), np.full(14, -1e200), np.array([1e308, 1e308, -1e308]),
                  np.array([1.7e308, 1.7e308]), np.full((4, 10), 1e200)):
            assert all_finite(x)
        v = as_vector([1e200, -1e300, 1.7e308, 1.7e308])
        assert v.dtype == float and v.tobytes() == np.array([1e200, -1e300, 1.7e308, 1.7e308]).tobytes()

    def test_nan_and_inf_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for x in (np.array([bad]), np.array([1.0, bad, 3.0]), np.array([1e308, 1e308, bad]),
                      np.array([bad, 1.7e308]), np.array([np.inf, -np.inf, bad])):
                assert not all_finite(x)
                with pytest.raises(ValueError, match="non-finite"):
                    as_vector(x)
        J = np.ones((3, 4))
        J[2, 1] = np.nan
        assert not all_finite(J) and not all_finite(J.T)


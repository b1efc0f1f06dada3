import json

import numpy as np
import pytest

from noisy_sqp.linalg import norm2, smallest_singular_value
from noisy_sqp.problems import (
    ExactEvaluation,
    ParseError,
    ProblemSpec,
    builtin_registry,
    duplicate_last_constraint,
    evaluate,
    get_problem,
    parse_problem_json,
)


def central_diff(problem, x, h=1e-6):
    g = np.zeros(problem.n)
    J = np.zeros((problem.m, problem.n))
    for i in range(problem.n):
        e = np.zeros(problem.n)
        e[i] = h
        plus = evaluate(problem, x + e)
        minus = evaluate(problem, x - e)
        g[i] = (plus.f - minus.f) / (2 * h)
        J[:, i] = (plus.c - minus.c) / (2 * h)
    return g, J


class TestEvaluate:
    def test_unit_circle_closed_form(self):
        # symbolic differentiation by hand, cross-checked below by differences
        p = get_problem("unit-circle")
        ev = evaluate(p, np.array([1.0, 0.0]))
        assert ev.f == pytest.approx(1.0)
        assert np.allclose(ev.g, [1.0, 1.0])
        assert np.allclose(ev.c, [0.0])
        assert np.allclose(ev.J, [[2.0, 0.0]])

    def test_quad_linear_at_origin(self):
        p = get_problem("quad-linear")
        ev = evaluate(p, np.zeros(p.n))
        assert np.allclose(ev.c, 0.0)
        assert np.allclose(ev.g, 0.0)

    def test_all_builtins_finite_at_start(self):
        for p in builtin_registry():
            ev = evaluate(p, p.x0)
            assert np.isfinite(ev.f)
            assert np.all(np.isfinite(ev.g))
            assert np.all(np.isfinite(ev.c))
            assert np.all(np.isfinite(ev.J))

    def test_dimension_mismatch(self):
        p = get_problem("unit-circle")
        with pytest.raises(ValueError, match="x has size 3, expected 2"):
            evaluate(p, np.zeros(3))

    @pytest.mark.parametrize("n, m", [(0, 1), (2, 0)])
    def test_empty_dimension_is_rejected(self, n, m):
        ev = get_problem("unit-circle").eval_fn
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            ProblemSpec("circle", n, m, np.zeros(n), ev)

    def test_start_point_of_the_wrong_length(self):
        ev = get_problem("unit-circle").eval_fn
        with pytest.raises(ValueError, match="x0 has size 3, expected 2"):
            ProblemSpec("circle", 2, 1, np.zeros(3), ev)

    @pytest.mark.parametrize("g, c", [(np.zeros(3), np.zeros(1)), (np.zeros(2), np.zeros(2))],
                             ids=["g", "c"])
    def test_eval_fn_of_the_wrong_shape(self, g, c):
        p = ProblemSpec("circle", 2, 1, np.ones(2),
                        lambda x: ExactEvaluation(f=0.0, g=g, c=c, J=np.zeros((1, 2))))
        with pytest.raises(ValueError, match="eval returned inconsistent dimensions"):
            evaluate(p, p.x0)

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_constraints_come_back_as_a_vector(self, shape):
        from noisy_sqp.problems import ExactEvaluation, ProblemSpec

        def ev(x):
            c = np.reshape(float(x @ x) - 1.0, shape)
            return ExactEvaluation(f=0.0, g=np.zeros(2), c=c, J=2.0 * x)

        ex = evaluate(ProblemSpec("circle", 2, 1, np.array([2.0, 0.0]), ev), [2.0, 0.0])
        assert ex.c.shape == (1,) and ex.c[0] == 3.0


class TestDuplicateLastConstraint:
    def test_rows_identical_and_rank_drops(self):
        dup = duplicate_last_constraint(get_problem("unit-circle"))
        assert dup.m == 2
        ev = evaluate(dup, dup.x0)
        assert np.allclose(ev.J[0], ev.J[1])
        assert ev.c[0] == ev.c[1]
        assert smallest_singular_value(ev.J) <= 1e-12
        assert not dup.full_rank

    def test_feasible_region_unchanged(self):
        p = get_problem("quad-linear")
        dup = duplicate_last_constraint(p)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(p.n)
            feas_orig = norm2(evaluate(p, x).c) <= 1e-12
            feas_dup = norm2(evaluate(dup, x).c) <= 1e-12
            assert feas_orig == feas_dup

    def test_composed_twice(self):
        p = get_problem("circle-shifted")
        dd = duplicate_last_constraint(duplicate_last_constraint(p))
        assert dd.m == p.m + 2
        x = p.x0 + 0.3
        ev0 = evaluate(p, x)
        ev2 = evaluate(dd, x)
        assert ev2.f == ev0.f
        assert np.allclose(ev2.g, ev0.g)
        assert np.allclose(ev2.c[-1], ev2.c[-2])
        assert np.allclose(ev2.J[-1], ev2.J[-2])


class TestRegistry:
    def test_size_and_dimensions(self):
        probs = builtin_registry()
        assert len(probs) >= 8
        for p in probs:
            assert 2 <= p.n <= 20
            assert 1 <= p.m < p.n

    def test_full_rank_tags(self):
        for p in builtin_registry():
            sigma = smallest_singular_value(evaluate(p, p.x0).J)
            if p.full_rank:
                assert sigma > 1e-8, p.name
            else:
                assert sigma <= 1e-8, p.name

    def test_has_rank_deficient_member(self):
        assert any(not p.full_rank for p in builtin_registry())

    def test_finite_difference_check_at_start(self):
        for p in builtin_registry():
            ev = evaluate(p, p.x0)
            g_fd, J_fd = central_diff(p, p.x0)
            assert np.max(np.abs(g_fd - ev.g)) <= 1e-5, p.name
            assert np.max(np.abs(J_fd - ev.J)) <= 1e-5, p.name

    def test_finite_difference_random_points(self):
        rng = np.random.default_rng(23)
        for p in builtin_registry():
            for _ in range(20):
                x = p.x0 + rng.uniform(-0.5, 0.5, p.n)
                ev = evaluate(p, x)
                g_fd, J_fd = central_diff(p, x)
                tol_g = 1e-5 * (1 + np.max(np.abs(ev.g)))
                tol_J = 1e-5 * (1 + np.max(np.abs(ev.J)))
                assert np.max(np.abs(g_fd - ev.g)) <= tol_g, p.name
                assert np.max(np.abs(J_fd - ev.J)) <= tol_J, p.name

    def test_documented_kkt_points(self):
        for p in builtin_registry():
            if p.known_kkt is None:
                continue
            x_star, y_star = p.known_kkt
            ev = evaluate(p, np.asarray(x_star))
            assert norm2(ev.c) <= 1e-8, p.name
            assert norm2(ev.g + ev.J.T @ np.asarray(y_star)) <= 1e-8, p.name


BUILTIN_NAMES = ["quad-linear", "quad-ellipse", "quad-linear-10", "unit-circle",
                 "circle-shifted", "parabola-ridge", "log-surface", "rosenbrock-sphere",
                 "rosenbrock-sphere-4", "sphere-dup"]


def same_bits(a, b):
    """Both None, or arrays of equal dtype, shape and bytes."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def arrays_of(p):
    """Every array a problem holds or hands out at its start point."""
    ev = evaluate(p, p.x0)
    kkt = list(p.known_kkt) if p.known_kkt is not None else []
    return [p.x0, ev.g, ev.c, ev.J] + kkt + ([p.H] if p.H is not None else [])


class TestLookup:
    """`get_problem` builds one registry entry, equal to the registry's own."""

    def test_registry_order(self):
        assert [p.name for p in builtin_registry()] == BUILTIN_NAMES

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_lookup_equals_the_registry_entry(self, name):
        got, ref = get_problem(name), builtin_registry()[BUILTIN_NAMES.index(name)]
        assert (got.name, got.n, got.m, got.full_rank, got.shared_noise_rows) == (
            ref.name, ref.n, ref.m, ref.full_rank, ref.shared_noise_rows)
        assert same_bits(got.x0, ref.x0) and same_bits(got.H, ref.H)
        assert (got.known_kkt is None) == (ref.known_kkt is None)
        if ref.known_kkt is not None:
            assert all(same_bits(a, b) for a, b in zip(got.known_kkt, ref.known_kkt))
        ev_got, ev_ref = evaluate(got, got.x0), evaluate(ref, ref.x0)
        assert ev_got.f == ev_ref.f
        assert all(same_bits(getattr(ev_got, k), getattr(ev_ref, k)) for k in "gcJ")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_each_lookup_is_built_afresh(self, name):
        first = get_problem(name)
        x0 = first.x0.copy()
        ev = evaluate(first, x0)
        first.x0 += 1.0
        second = get_problem(name)
        assert same_bits(second.x0, x0)
        ev2 = evaluate(second, x0)
        assert ev2.f == ev.f and all(same_bits(getattr(ev2, k), getattr(ev, k)) for k in "gcJ")
        assert not any(np.shares_memory(a, b)
                       for a in arrays_of(first) for b in arrays_of(second))


class TestProblemJson:
    def test_closed_form(self):
        text = json.dumps({
            "name": "toy", "Q": [[1, 0], [0, 1]], "q": [0, 0],
            "A": [[1, 1]], "b": [1], "x0": [0, 0],
        })
        p = parse_problem_json(text)
        ev = evaluate(p, p.x0)
        assert ev.f == pytest.approx(0.0)
        assert np.allclose(ev.c, [-1.0])
        assert np.allclose(ev.J, [[1.0, 1.0]])

    def test_missing_field_named(self):
        text = json.dumps({"name": "t", "Q": [[1]], "q": [0], "b": [0], "x0": [0]})
        with pytest.raises(ParseError, match="'A'"):
            parse_problem_json(text)

    @pytest.mark.parametrize("field, bad", [
        ("Q", [[float("nan"), 0], [0, 1]]), ("q", [0, float("inf")]),
        ("A", [[float("-inf"), 0]]), ("b", [float("nan")]), ("x0", [float("inf"), 0]),
    ], ids=["Q", "q", "A", "b", "x0"])
    def test_non_finite_entry_named(self, field, bad):
        data = {"name": "t", "Q": [[1, 0], [0, 1]], "q": [0, 0], "A": [[1, 0]], "b": [0],
                "x0": [0, 0]}
        text = json.dumps({**data, field: bad})  # NaN, Infinity, -Infinity: json.loads reads them
        with pytest.raises(ParseError, match=f"non-finite entry in '{field}'"):
            parse_problem_json(text)

    @pytest.mark.parametrize("change, message", [
        ({"Q": [[1, 0, 0], [0, 1, 0]]}, "Q must be square, got (2, 3)"),
        ({"q": [0, 0, 0]}, "q must have length 2, got (3,)"),
        ({"b": [1, 2]}, "b must have length 1, got (2,)"),
        ({"x0": [[0, 0]]}, "x0 must have length 2, got (1, 2)"),
        ({"A": [[1, "one"]]}, "non-numeric entry in 'A': could not convert string to float"),
    ], ids=["Q-2x3", "q-3", "b-2", "x0-1x2", "A-string"])
    def test_malformed_field_named(self, change, message):
        data = {"name": "t", "Q": [[1, 0], [0, 1]], "q": [0, 0], "A": [[1, 0]], "b": [0],
                "x0": [0, 0]}
        with pytest.raises(ParseError) as info:
            parse_problem_json(json.dumps({**data, **change}))
        assert str(info.value).startswith(message)

    def test_asymmetric_Q_symmetrized(self):
        text = json.dumps({
            "name": "t", "Q": [[0, 2], [0, 0]], "q": [0, 0],
            "A": [[1, 0]], "b": [0], "x0": [0, 0],
        })
        p = parse_problem_json(text)
        x = np.array([1.0, 1.0])
        ev = evaluate(p, x)
        Qs = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert ev.f == pytest.approx(0.5 * x @ Qs @ x)
        assert np.allclose(ev.g, Qs @ x)

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_problem_json(b'{"name": "x",\n "Q": oops}')

    def test_non_utf8_bytes_are_a_parse_error(self):
        with pytest.raises(ParseError, match="^not utf-8 text: invalid start byte at byte 10$"):
            parse_problem_json(b'{"name": "\xff"}')

    def test_qp_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "toy.qp.json"
        path.write_text(json.dumps({
            "name": "toy", "Q": [[2, 0], [0, 2]], "q": [1, 0],
            "A": [[1, 1]], "b": [1], "x0": [0.5, 0.5],
        }))
        p = get_problem(str(path))
        assert p.name == "toy"
        assert p.n == 2 and p.m == 1

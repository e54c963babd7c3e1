import numpy as np
import pytest

from singlepixel.tvreg import tv_anisotropic, tv_prox, tv_subgradient

from conftest import reference_tv_prox

SHAPES = [(32, 32), (128, 128), (16, 48), (5, 7)]
ALPHAS = [1e-4, 1e-3, 1e-2, 0.1, 1.0]


def prox_objective(u, v, alpha):
    return 0.5 * float(np.sum((u - v) ** 2)) + alpha * tv_anisotropic(u)


class TestTvProx:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_equals_the_full_size_dual_iteration(self, shape, alpha, rng):
        v = rng.standard_normal(shape)
        kept = v.copy()
        out = tv_prox(v, alpha)
        assert np.array_equal(out, reference_tv_prox(v, alpha))
        assert np.array_equal(v, kept)

    @pytest.mark.parametrize("iterations", [0, 1, 3, 25])
    def test_equals_the_oracle_at_any_iteration_count(self, iterations, rng):
        v = rng.standard_normal((9, 12))
        assert np.array_equal(tv_prox(v, 0.05, iterations), reference_tv_prox(v, 0.05, iterations))

    def test_equals_the_oracle_on_a_strided_input(self, rng):
        v = rng.standard_normal((24, 20))[::2, ::-1]
        assert np.array_equal(tv_prox(v, 0.1), reference_tv_prox(v, 0.1))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_objective_not_above_its_value_at_the_input(self, shape, alpha, rng):
        # a piecewise-constant image plus noise, so the TV term matters
        v = np.repeat(rng.random((shape[0], 1)), shape[1], axis=1) + 0.1 * rng.standard_normal(shape)
        assert prox_objective(tv_prox(v, alpha), v, alpha) <= prox_objective(v, v, alpha)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_weight_returns_a_copy(self, alpha, rng):
        v = rng.standard_normal((6, 5))
        out = tv_prox(v, alpha)
        assert np.array_equal(out, v)
        assert not np.shares_memory(out, v)


class TestTvTerms:
    def test_total_variation_of_a_step(self):
        u = np.zeros((4, 6))
        u[:, 3:] = 2.0
        assert tv_anisotropic(u) == 8.0
        assert np.array_equal(tv_subgradient(u)[0], [0, 0, -1, 1, 0, 0])

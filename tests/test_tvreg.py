import numpy as np
import pytest

from singlepixel.errors import DimensionError
from singlepixel.tvreg import TvDual, tv_anisotropic, tv_prox, tv_subgradient

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

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("iterations", [0, 1, 10])
    def test_same_bytes_as_the_oracle_on_signed_zeros(self, shape, alpha, iterations, rng):
        # whole numbers, with each zero's sign drawn at random: the first dual
        # step, taken from v, must give the oracle's bytes on both zeros
        v = np.round(rng.standard_normal(shape))
        v[(v == 0) & (rng.random(shape) < 0.5)] = -0.0
        assert np.signbit(v[v == 0]).any() and not np.signbit(v[v == 0]).all()
        out = tv_prox(v, alpha, iterations)
        assert out.tobytes() == reference_tv_prox(v, alpha, iterations).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (5, 7), (128, 128)])
    def test_transpose_commutes_bit_for_bit(self, shape, rng):
        # the oracle's reference_div cannot run one-wide grids
        v = rng.standard_normal(shape)
        assert tv_prox(v.T, 0.1).tobytes() == np.ascontiguousarray(tv_prox(v, 0.1).T).tobytes()

    def test_each_call_returns_a_new_array(self, rng):
        v = rng.standard_normal((16, 16))
        first = tv_prox(v, 0.1)
        kept = first.copy()
        second = tv_prox(v + 1.0, 0.1)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_weight_returns_a_copy(self, alpha, rng):
        v = rng.standard_normal((6, 5))
        out = tv_prox(v, alpha)
        assert np.array_equal(out, v)
        assert not np.shares_memory(out, v)

    @pytest.mark.parametrize("alpha", [1e-310, 1e-320, np.float64(1e-320)])
    def test_weight_whose_dual_step_overflows_returns_a_copy(self, alpha, rng):
        # below about 1.4e-309, 0.25 / alpha overflows; u would move from v
        # by at most 4 * alpha
        v = rng.standard_normal((6, 5))
        out = tv_prox(v, alpha)
        assert out.tobytes() == v.tobytes()
        assert not np.shares_memory(out, v)


def signed_zero_input(shape, rng):
    """Whole numbers, each zero's sign drawn at random."""
    v = np.round(rng.standard_normal(shape))
    v[(v == 0) & (rng.random(shape) < 0.5)] = -0.0
    return v


WARM_SHAPES = [(32, 32), (16, 48), (5, 7)]
INPUTS = {"normal": lambda shape, rng: rng.standard_normal(shape), "signed zeros": signed_zero_input}


class TestWarmTvProx:
    @pytest.mark.parametrize("shape", WARM_SHAPES)
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("iterations", [0, 1, 2, 10])
    @pytest.mark.parametrize("draw", INPUTS)
    def test_chain_equals_the_oracle_that_carries_its_duals(self, shape, alpha, iterations, draw, rng):
        state = TvDual(shape)
        duals = (np.zeros(shape), np.zeros(shape))
        for _ in range(3):
            v = INPUTS[draw](shape, rng)
            expected, duals = reference_tv_prox(v, alpha, iterations, duals)
            assert tv_prox(v, alpha, iterations, state).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", WARM_SHAPES)
    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("iterations", [0, 1, 2, 10])
    @pytest.mark.parametrize("draw", INPUTS)
    def test_first_call_on_a_new_state_is_the_cold_prox(self, shape, alpha, iterations, draw, rng):
        v = INPUTS[draw](shape, rng)
        warm = tv_prox(v, alpha, iterations, TvDual(shape))
        assert warm.tobytes() == tv_prox(v, alpha, iterations).tobytes()

    def test_each_call_returns_a_new_array(self, rng):
        state = TvDual((16, 16))
        first = tv_prox(rng.standard_normal((16, 16)), 0.1, 2, state)
        kept = first.copy()
        second = tv_prox(rng.standard_normal((16, 16)), 0.1, 2, state)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1e-320])
    def test_copy_path_leaves_the_duals(self, alpha, rng):
        state = TvDual((9, 12))
        tv_prox(rng.standard_normal((9, 12)), 0.1, 2, state)
        v = rng.standard_normal((9, 12))
        kept = state.inner.copy()
        out = tv_prox(v, alpha, 2, state)
        assert out.tobytes() == v.tobytes() and not np.shares_memory(out, v)
        assert state.inner.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("shape,dtype", [((9, 11), np.float64), ((9, 12), np.float32)])
    def test_state_of_another_grid_rejected(self, shape, dtype, rng):
        with pytest.raises(DimensionError, match="TV dual state of"):
            tv_prox(rng.standard_normal((9, 12)), 0.1, 2, TvDual(shape, dtype))


class TestTvTerms:
    def test_total_variation_of_a_step(self):
        u = np.zeros((4, 6))
        u[:, 3:] = 2.0
        assert tv_anisotropic(u) == 8.0
        assert np.array_equal(tv_subgradient(u)[0], [0, 0, -1, 1, 0, 0])

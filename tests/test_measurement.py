import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlepixel.errors import ConsistencyError, FormatError, NumericalError, ParameterError
from singlepixel.field import IntensityImage
from singlepixel.measurement import (
    Measurement,
    diffract,
    encode,
    measure,
    objective,
    read_measurement_csv,
    write_measurement_csv,
)
from singlepixel.patterns import walsh_hadamard_patterns
from singlepixel.propagation import PropagationSpec

from conftest import FUZZ_PHASES, apply_mask, damaged_loads, positive_negative_split


def image(values):
    return IntensityImage(values=np.asarray(values, float))


def brute_force_reading(img, pset, i):
    """Literal two-mask differential readout: I+ (pump the -1 cells) minus
    I- (pump the +1 cells), each with attenuation 1 - m on pumped cells.  An
    image b times finer than the pattern grid is read per cell as the mean
    of its b x b block, so the sum is divided by b^2."""
    m = pset.modulation_depth
    b = img.values.shape[0] // pset.order
    plus, minus = positive_negative_split(pset, i)
    i_plus = float(apply_mask(img, minus, m).values.sum())
    i_minus = float(apply_mask(img, plus, m).values.sum())
    return (i_plus - i_minus) / b**2


class TestMeasure:
    def test_zero_image_reads_zero(self):
        pset = walsh_hadamard_patterns(4, 16)
        meas = measure(image(np.zeros((4, 4))), pset)
        assert np.all(meas.readings == 0)

    def test_uniform_image_balanced_rows_read_zero(self):
        pset = walsh_hadamard_patterns(4, 16, ordering="natural")
        meas = measure(image(np.ones((4, 4))), pset)
        assert meas.readings[0] == pytest.approx(16 * pset.modulation_depth)
        assert np.abs(meas.readings[1:]).max() < 1e-12

    def test_delta_image_reads_pattern_values(self):
        pset = walsh_hadamard_patterns(4, 16, modulation_depth=1.0)
        values = np.zeros((4, 4))
        values[1, 2] = 2.5
        meas = measure(image(values), pset)
        for i in range(16):
            assert meas.readings[i] == pytest.approx(2.5 * pset.logical_masks[i][1, 2], abs=1e-12)

    def test_matches_two_mask_brute_force(self, rng):
        pset = walsh_hadamard_patterns(4, 16, modulation_depth=0.7)
        img = image(rng.random((4, 4)))
        meas = measure(img, pset)
        for i in range(16):
            assert meas.readings[i] == pytest.approx(brute_force_reading(img, pset, i), abs=1e-10)

    def test_pooled_measurement_matches_brute_force(self, rng):
        # image finer than the pattern grid: cells replicate over 2x2 blocks
        pset = walsh_hadamard_patterns(4, 16, modulation_depth=0.6)
        img = image(rng.random((8, 8)))
        meas = measure(img, pset)
        for i in range(0, 16, 5):
            assert meas.readings[i] == pytest.approx(brute_force_reading(img, pset, i), abs=1e-10)

    def test_readings_of_a_finer_smooth_scene_match_the_pattern_grid(self):
        # a smooth scene sampled at b = 1, 2 and 4 pixels per pattern cell
        # reads alike: the pooled mean differs from the cell-centre sample by
        # discretisation error only, never by a factor b^2
        pset = walsh_hadamard_patterns(16, 64, modulation_depth=0.8)

        def scene(b):
            x = (np.arange(16 * b) + 0.5) / (16 * b)
            return image(np.outer(1.0 + 0.5 * np.sin(2 * np.pi * x), 1.0 + 0.5 * np.cos(np.pi * x)))

        readings = [measure(scene(b), pset).readings for b in (1, 2, 4)]
        scale = np.abs(readings[0]).max()
        assert readings[0][0] == pytest.approx(0.8 * scene(1).values.sum(), rel=1e-12)
        for finer in readings[1:]:
            assert np.abs(finer - readings[0]).max() <= 0.005 * scale

    def test_linearity_without_noise(self, rng):
        pset = walsh_hadamard_patterns(4, 16)
        a = image(rng.random((4, 4)))
        b = image(rng.random((4, 4)))
        combo = image(2.0 * a.values + 3.0 * b.values)
        lhs = measure(combo, pset).readings
        rhs = 2.0 * measure(a, pset).readings + 3.0 * measure(b, pset).readings
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_differential_noise_variance_doubles(self):
        # >= 10^4 independent readings of a zero image are pure differential
        # noise with variance 2 sigma^2
        pset = walsh_hadamard_patterns(16, 256)
        sigma = 1.7
        draws = []
        for seed in range(40):
            meas = measure(image(np.zeros((16, 16))), pset, noise_sigma=sigma, seed=seed)
            draws.append(meas.readings)
        draws = np.concatenate(draws)
        assert draws.size >= 10_000
        assert draws.var() == pytest.approx(2 * sigma**2, rel=0.05)

    def test_reproducible_bit_for_bit(self, rng):
        pset = walsh_hadamard_patterns(4, 16)
        img = image(rng.random((4, 4)))
        a = measure(img, pset, noise_sigma=0.5, seed=99)
        b = measure(img, pset, noise_sigma=0.5, seed=99)
        assert np.array_equal(a.readings, b.readings)

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_noise_is_prefix_stable(self, rng, k):
        """The first k readings of a set are the readings of its first k patterns."""
        pset = walsh_hadamard_patterns(8, 16)
        img = image(rng.random((8, 8)))
        full = measure(img, pset, noise_sigma=0.5, seed=21).readings
        prefix = measure(img, pset.subset(k), noise_sigma=0.5, seed=21).readings
        assert np.array_equal(prefix, full[:k])

    @pytest.mark.parametrize("order, count", [(64, 1024), (128, 256)])
    def test_subset_readings_are_a_prefix_bit_for_bit(self, rng, order, count):
        """The readings of subset(k) are the first k readings of the set: the
        factored operator keeps each reading's bytes whatever rows it shares."""
        pset = walsh_hadamard_patterns(order, count)
        img = image(rng.random((order, order)))
        full = measure(img, pset).readings
        for k in (1, 7, 50, count // 4, count - 1):
            assert np.array_equal(measure(img, pset.subset(k)).readings, full[:k]), k

    def test_negative_sigma_rejected(self):
        pset = walsh_hadamard_patterns(4, 4)
        with pytest.raises(ParameterError):
            measure(image(np.zeros((4, 4))), pset, noise_sigma=-1.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        pset = walsh_hadamard_patterns(4, 4)
        with pytest.raises(ParameterError, match="is not finite and >= 0"):
            measure(image(np.zeros((4, 4))), pset, noise_sigma=sigma)

    def test_negative_seed_rejected_when_noise_is_drawn(self):
        pset = walsh_hadamard_patterns(4, 4)
        with pytest.raises(ParameterError, match="noise seed -1 is negative"):
            measure(image(np.zeros((4, 4))), pset, noise_sigma=0.5, seed=-1)
        # without noise the seed is only recorded
        assert measure(image(np.zeros((4, 4))), pset, seed=-1).seed == -1


class TestObjective:
    @pytest.mark.parametrize("distance", [0.5e-3, -0.4e-3])
    def test_gradient_matches_central_difference(self, rng, distance):
        """<dL/dO, v> of `objective` is the directional derivative of its
        loss along v, forward and back-propagating, on the 16 px pattern
        grid."""
        pset = walsh_hadamard_patterns(16, 80, modulation_depth=0.8)
        prop = PropagationSpec(wavelength=833.3e-6, distance=distance, pitch=10.5e-3 / 64)
        obj = 0.2 + rng.random((16, 16))
        meas = Measurement(readings=rng.standard_normal(pset.count), pattern_ref="",
                           noise_sigma=0.0, seed=0)
        direction = rng.standard_normal((16, 16))

        def loss(values):
            return objective(values, meas, pset, prop)[0]

        analytic = np.sum(objective(obj, meas, pset, prop)[1] * direction)
        step = 1e-6
        fd = (loss(obj + step * direction) - loss(obj - step * direction)) / (2 * step)
        assert analytic == pytest.approx(fd, rel=1e-6)

    def test_loss_is_the_residual_of_the_forward_model(self, rng):
        obj = image(rng.random((16, 16)))
        pset = walsh_hadamard_patterns(16, 64, modulation_depth=0.9)
        prop = PropagationSpec(wavelength=833.3e-6, distance=0.4e-3, pitch=2e-4)
        meas = measure(image(rng.random((16, 16))), pset, noise_sigma=0.3, seed=4)
        residual = encode(diffract(obj, prop).values, pset) - meas.readings
        assert objective(obj.values, meas, pset, prop)[0] == float(residual @ residual)

    def test_readings_of_another_pattern_set_rejected(self, rng):
        pset = walsh_hadamard_patterns(16, 64)
        meas = measure(image(rng.random((16, 16))), pset.subset(32))
        prop = PropagationSpec(wavelength=833.3e-6, distance=0.4e-3, pitch=2e-4)
        with pytest.raises(ConsistencyError, match="32 readings but pattern set has 64"):
            objective(rng.random((16, 16)), meas, pset, prop)

    # The overflowing loss itself warns; the reverse pass must not run on it.
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_non_finite_loss_raises_before_the_reverse_pass(self, rng):
        pset = walsh_hadamard_patterns(16, 64)
        meas = Measurement(readings=np.full(64, 1e307), pattern_ref="", noise_sigma=0.0, seed=0)
        prop = PropagationSpec(wavelength=833.3e-6, distance=0.4e-3, pitch=2e-4)
        with pytest.raises(NumericalError, match=r"^non-finite loss \(stage: loss\)$"):
            objective(rng.random((16, 16)), meas, pset, prop)


class TestPatternTotalIntensity:
    """The pattern sums S_i that DGI's background correction takes in closed
    form: N for Hadamard row 0, 0 for every other row."""

    @staticmethod
    def mask_sums(pset):
        return pset.logical_masks.reshape(pset.count, -1).sum(axis=1)

    def test_dc_row_of_order_64(self):
        pset = walsh_hadamard_patterns(64, 2)
        assert self.mask_sums(pset)[0] == 4096

    def test_non_dc_rows_sum_to_zero(self):
        pset = walsh_hadamard_patterns(8, 64)
        assert np.all(self.mask_sums(pset)[1:] == 0)

    def test_split_sum_identity(self):
        pset = walsh_hadamard_patterns(4, 16)
        for i in range(16):
            plus, minus = positive_negative_split(pset, i)
            assert int(plus.sum()) - int(minus.sum()) == (16 if pset.selection[i] == 0 else 0)


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path, rng):
        pset = walsh_hadamard_patterns(4, 16)
        meas = measure(image(rng.random((4, 4))), pset, noise_sigma=0.25, seed=3)
        path = tmp_path / "m.csv"
        write_measurement_csv(path, meas)
        loaded = read_measurement_csv(path)
        assert np.array_equal(loaded.readings, meas.readings)
        assert loaded.noise_sigma == meas.noise_sigma
        assert loaded.seed == meas.seed
        assert loaded.pattern_ref == meas.pattern_ref
        assert " differential=true " in path.read_text()

    def test_write_is_deterministic(self, tmp_path, rng):
        pset = walsh_hadamard_patterns(4, 16)
        meas = measure(image(rng.random((4, 4))), pset, noise_sigma=0.25, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_measurement_csv(a, meas)
        write_measurement_csv(b, meas)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.5\n")
        with pytest.raises(FormatError):
            read_measurement_csv(path)

    @pytest.mark.parametrize("text,match", [
        ("index,reading\n0,1.0\nx,1.0\n", "row 1"),
        ("index,reading\n0,abc\n", "row 0"),
        ("# noise_sigma=abc seed=0\nindex,reading\n0,1.0\n", "noise_sigma"),
        ("# noise_sigma=nan seed=0\nindex,reading\n0,1.0\n", "bad noise_sigma 'nan'"),
        ("# noise_sigma=inf seed=0\nindex,reading\n0,1.0\n", "bad noise_sigma 'inf'"),
        ("# noise_sigma=-1 seed=0\nindex,reading\n0,1.0\n", "bad noise_sigma '-1'"),
        ("# noise_sigma=0.1 seed=1.5\nindex,reading\n0,1.0\n", "seed"),
        ("# differential=false\nindex,reading\n0,1.0\n", "bad differential 'false'"),
    ])
    def test_non_numeric_field_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            read_measurement_csv(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfeindex,reading\n0,1.0\n")
        with pytest.raises(FormatError, match="not UTF-8 text: byte 0 is 0xff"):
            read_measurement_csv(path)

    @given(readings=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                             max_size=4),
           noise_sigma=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1),
           pattern_ref=st.from_regex(r"[a-z0-9-]{0,24}", fullmatch=True),
           junk=st.integers(1, 255))
    @settings(max_examples=20, deadline=None, phases=FUZZ_PHASES)
    def test_round_trip_and_every_damaged_copy(self, tmp_path_factory, readings, noise_sigma,
                                               seed, pattern_ref, junk):
        meas = Measurement(readings=np.array(readings), pattern_ref=pattern_ref,
                           noise_sigma=noise_sigma, seed=seed)
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_measurement_csv(path, meas)
        blob = path.read_bytes()
        loaded = read_measurement_csv(path)
        assert np.array_equal(loaded.readings, meas.readings)
        assert (loaded.pattern_ref, loaded.noise_sigma, loaded.seed) == (
            pattern_ref, noise_sigma, seed)
        damaged_loads(read_measurement_csv, path, blob, junk)

    def test_mismatched_length_detected(self, rng):
        pset = walsh_hadamard_patterns(4, 16)
        meas = measure(image(rng.random((4, 4))), pset)
        from singlepixel.classical import hspi_reconstruct

        with pytest.raises(ConsistencyError):
            hspi_reconstruct(meas, pset.subset(8))

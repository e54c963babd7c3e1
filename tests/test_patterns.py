import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from singlepixel.classical import cstv_reconstruct, dgi_reconstruct, hspi_reconstruct
from singlepixel.errors import DimensionError, FormatError, ParameterError
from singlepixel.field import IntensityImage
from singlepixel.measurement import encode, encode_adjoint, measure
from singlepixel.network import GeneratorNet
from singlepixel import patterns
from singlepixel.patterns import (
    PatternSet,
    fwht,
    load_patterns,
    project,
    save_patterns,
    synthesize,
    walsh_hadamard_patterns,
)
from singlepixel.prior import loss_and_gradient
from singlepixel.propagation import PropagationSpec

from conftest import apply_mask, hadamard_row, mask_sequency, positive_negative_split, row_sequency


def brute_force_hadamard(n):
    return np.array([[(-1) ** bin(i & j).count("1") for j in range(n)] for i in range(n)])


class TestFwht:
    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_matches_popcount_matrix(self, n, rng):
        h = brute_force_hadamard(n)
        x = rng.standard_normal((n, n))
        assert np.allclose(fwht(x), h @ x @ h, atol=1e-10)

    def test_self_inverse_up_to_length(self, rng):
        x = rng.standard_normal((8, 8))
        assert np.allclose(fwht(fwht(x)) / 64, x, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        """A grid whose side is not a power of two, or that is not square."""
        for shape in [(6, 6), (3, 3), (0, 0), (12, 12), (4, 8), (8, 4), (16,), (2, 2, 2), ()]:
            with pytest.raises(ParameterError, match="square power-of-two grid"):
                fwht(np.zeros(shape))

    @pytest.mark.parametrize("bits", range(0, 13, 2))
    def test_matches_scipy_hadamard(self, bits, rng):
        """The flattened transform of an n x n grid is H_{n*n} @ grid.ravel(),
        N = n*n = 2**bits.  Integer-valued input keeps every partial sum
        exact, so any summation order gives the same bits."""
        n, big_n = 1 << (bits // 2), 1 << bits
        x = rng.integers(-1000, 1000, size=(n, n)).astype(np.float64)
        h = scipy.linalg.hadamard(big_n, dtype=np.int8)
        flat = x.ravel()
        expected = np.concatenate([h[i:i + 512].astype(np.float64) @ flat
                                   for i in range(0, big_n, 512)])
        assert np.array_equal(fwht(x).ravel(), expected)

    @pytest.mark.parametrize("bits", [14])
    def test_large_lengths_match_hadamard_rows(self, bits, rng):
        # H of order 2^14 (a 128 x 128 grid) is 268 MB even as int8, so check sampled rows
        big_n = 1 << bits
        n = 1 << (bits // 2)
        x = rng.integers(-1000, 1000, size=(n, n)).astype(np.float64)
        y = fwht(x).ravel()
        for r in [0, 1, n, big_n // 2, big_n - 1, *rng.integers(0, big_n, size=16)]:
            assert y[r] == hadamard_row(int(r), big_n) @ x.ravel()

    def test_int8_masks_transform_exactly(self):
        pset = walsh_hadamard_patterns(8, 64, ordering="natural")
        for r, mask in enumerate(pset.logical_masks):
            y = fwht(mask)
            assert y.dtype == np.float64
            assert np.array_equal(y.ravel(), 64.0 * np.eye(64)[r])

    def test_input_is_not_mutated(self, rng):
        for x in (rng.standard_normal((16, 16)), rng.integers(-1, 2, size=(8, 8)).astype(np.int8)):
            kept = x.copy()
            fwht(x)
            assert np.array_equal(x, kept)

    def test_same_bytes_with_one_blas_thread(self):
        """The transform runs through BLAS; its bytes must not depend on the
        thread count, for the full transform or for the factored operator at
        the sequency prefixes where unpadded factors would."""
        script = (
            "import hashlib, numpy as np\n"
            "from singlepixel.patterns import fwht, project, synthesize, walsh_hadamard_patterns\n"
            "rng = np.random.default_rng(5)\n"
            "h = hashlib.sha256()\n"
            "for n in [128, 64, 256]:\n"
            "    h.update(fwht(rng.standard_normal((n, n))).tobytes())\n"
            "for n, m in [(128, 4096), (128, 8192), (256, 3000), (256, 16384)]:\n"
            "    pset = walsh_hadamard_patterns(n, m)\n"
            "    h.update(project(pset, rng.standard_normal((n, n))).tobytes())\n"
            "    h.update(synthesize(pset, rng.standard_normal(m)).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        digests = [
            subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, check=True, timeout=60).stdout
            for env in (base, dict(base, OPENBLAS_NUM_THREADS="1"))
        ]
        assert digests[0] == digests[1] and len(digests[0].strip()) == 64


class TestOrderings:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 256])
    def test_sequency_to_natural_by_sign_counting(self, n):
        """The full sequency set is ordered by (sx + sy, max, sx, sy), with each
        1-D sequency counted on the rows of H_n by brute force."""
        seq = [row_sequency(hadamard_row(r, n)) for r in range(n)]
        r1, r0 = np.divmod(walsh_hadamard_patterns(n, n * n).selection, n)
        keys = [(seq[a] + seq[b], max(seq[a], seq[b]), seq[b], seq[a]) for a, b in zip(r1, r0)]
        assert keys == sorted(set(keys))

    def test_sequency_selection_matches_sorted_tuples(self):
        """The sequency selection equals the sort of (sx + sy, max, sx, sy)
        tuples it replaced, so fingerprints and pattern files are unchanged."""
        for bits in range(1, 9):
            n = 1 << bits
            natural = {row_sequency(hadamard_row(r, n)): r for r in range(n)}
            keys = sorted((sx + sy, max(sx, sy), sx, sy) for sy in range(n) for sx in range(n))
            oracle = [natural[sy] * n + natural[sx] for _, _, sx, sy in keys]
            for m in sorted({1, 2, 3, n, n * n // 4, n * n // 2 + 1, n * n - 1, n * n}):
                selection = walsh_hadamard_patterns(n, m).selection
                assert selection == tuple(oracle[:m])
                assert all(type(i) is int for i in selection)

    def test_mask_sequency_of_separable_rows(self):
        # natural index r1*n + r0 reshapes to walsh(r1) (x) walsh(r0) whose
        # 2D sign-change count is n * (seq_y + seq_x)
        n = 8
        pset = walsh_hadamard_patterns(n, n * n, ordering="natural")
        for k, idx in enumerate(pset.selection):
            r1, r0 = divmod(idx, n)
            expected = n * (row_sequency(hadamard_row(r1, n)) + row_sequency(hadamard_row(r0, n)))
            assert mask_sequency(pset.logical_masks[k]) == expected

    def test_sequency_masks_sorted_by_2d_sign_changes(self):
        pset = walsh_hadamard_patterns(8, 64)
        seqs = [mask_sequency(m) for m in pset.logical_masks]
        assert seqs == sorted(seqs)

    def test_sequency_is_permutation_of_natural(self):
        natural = walsh_hadamard_patterns(4, 16, ordering="natural")
        sequency = walsh_hadamard_patterns(4, 16, ordering="sequency")
        assert sorted(sequency.selection) == sorted(natural.selection)
        a = {m.tobytes() for m in natural.logical_masks}
        b = {m.tobytes() for m in sequency.logical_masks}
        assert a == b


class TestWalshHadamardPatterns:
    def test_order_two_natural_rows(self):
        pset = walsh_hadamard_patterns(2, 4, ordering="natural")
        h4 = brute_force_hadamard(4)
        for k in range(4):
            assert np.array_equal(pset.logical_masks[k].ravel(), h4[k])
        assert np.all(pset.logical_masks[0] == 1)

    @pytest.mark.parametrize("ordering", ["natural", "sequency"])
    def test_pairwise_orthogonality(self, ordering):
        pset = walsh_hadamard_patterns(4, 16, ordering=ordering)
        flat = pset.logical_masks.reshape(16, 16).astype(np.int64)
        assert np.array_equal(flat @ flat.T, 16 * np.eye(16, dtype=np.int64))

    def test_completeness_full_sampling(self):
        pset = walsh_hadamard_patterns(8, 64, ordering="sequency")
        flat = pset.logical_masks.reshape(64, 64).astype(np.int64)
        assert np.array_equal(flat @ flat.T, 64 * np.eye(64, dtype=np.int64))

    def test_rejects_non_power_of_two_order(self):
        with pytest.raises(ParameterError):
            walsh_hadamard_patterns(12, 4)

    def test_rejects_count_above_pixels(self):
        with pytest.raises(ParameterError):
            walsh_hadamard_patterns(4, 17)

    def test_subset_is_prefix(self):
        pset = walsh_hadamard_patterns(4, 10)
        sub = pset.subset(3)
        assert sub.selection == pset.selection[:3]
        assert np.array_equal(sub.logical_masks, pset.logical_masks[:3])


class TestPositiveNegativeSplit:
    def test_all_plus_mask(self):
        pset = walsh_hadamard_patterns(4, 4, ordering="natural")
        plus, minus = positive_negative_split(pset, 0)
        assert np.all(plus == 1) and np.all(minus == 0)

    def test_difference_reproduces_logical_mask(self):
        pset = walsh_hadamard_patterns(4, 16)
        for i in range(pset.count):
            plus, minus = positive_negative_split(pset, i)
            assert np.array_equal(
                plus.astype(np.int8) - minus.astype(np.int8), pset.logical_masks[i]
            )

    def test_halves_partition_the_grid(self):
        pset = walsh_hadamard_patterns(4, 16)
        for i in range(pset.count):
            plus, minus = positive_negative_split(pset, i)
            assert np.all(plus + minus == 1)

    def test_index_out_of_range(self):
        pset = walsh_hadamard_patterns(4, 4)
        with pytest.raises(IndexError):
            positive_negative_split(pset, 4)


class TestApplyMask:
    def image(self, values):
        return IntensityImage(values=np.asarray(values, float))

    def test_full_depth_blocks_everything(self):
        img = self.image(np.ones((4, 4)))
        out = apply_mask(img, np.ones((4, 4)), 1.0)
        assert np.all(out.values == 0)

    def test_transparent_state_unchanged(self, rng):
        img = self.image(rng.random((4, 4)))
        out = apply_mask(img, np.zeros((4, 4)), 1.0)
        assert np.array_equal(out.values, img.values)

    def test_half_depth_half_plane(self):
        img = self.image(np.ones((4, 4)))
        mask = np.zeros((4, 4))
        mask[:, 2:] = 1
        out = apply_mask(img, mask, 0.5)
        assert np.all(out.values[:, :2] == 1.0)
        assert np.all(out.values[:, 2:] == 0.5)

    def test_pixel_replication_upsampling(self):
        img = self.image(np.ones((8, 8)))
        mask = np.zeros((4, 4))
        mask[0, 0] = 1
        out = apply_mask(img, mask, 1.0)
        assert np.all(out.values[:2, :2] == 0.0)
        assert out.values.sum() == 64 - 4

    def test_incompatible_shapes(self):
        img = self.image(np.ones((8, 8)))
        for shape in [(16, 16), (3, 3), (4, 2)]:
            with pytest.raises(DimensionError):
                apply_mask(img, np.zeros(shape), 0.5)

    @given(depth1=st.floats(0.01, 1.0), depth2=st.floats(0.01, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_depth(self, depth1, depth2):
        rng = np.random.default_rng(5)
        img = self.image(rng.random((4, 4)))
        mask = (rng.random((4, 4)) > 0.5).astype(float)
        lo, hi = sorted([depth1, depth2])
        assert np.all(apply_mask(img, mask, hi).values <= apply_mask(img, mask, lo).values + 1e-15)


class TestPatternFile:
    def test_round_trip_preserves_masks_exactly(self, tmp_path):
        pset = walsh_hadamard_patterns(8, 24, modulation_depth=0.8)
        path = tmp_path / "patterns.spip"
        save_patterns(path, pset)
        loaded = load_patterns(path, modulation_depth=0.8)
        assert np.array_equal(loaded.logical_masks, pset.logical_masks)
        assert loaded.selection == pset.selection
        assert loaded.ordering == pset.ordering
        assert loaded.order == pset.order

    def test_round_trip_bytes_identical(self, tmp_path):
        pset = walsh_hadamard_patterns(4, 7)
        a, b = tmp_path / "a.spip", tmp_path / "b.spip"
        save_patterns(a, pset)
        save_patterns(b, load_patterns(a))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spip"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            load_patterns(path)

    def test_bad_mask_byte_reports_offset(self, tmp_path):
        pset = walsh_hadamard_patterns(2, 2)
        path = tmp_path / "corrupt.spip"
        save_patterns(path, pset)
        blob = bytearray(path.read_bytes())
        blob[15 + 3] = 7  # header is 15 bytes; corrupt the 4th mask byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 18"):
            load_patterns(path)

    def test_non_hadamard_mask_rejected(self, tmp_path):
        pset = walsh_hadamard_patterns(2, 2)
        path = tmp_path / "nothad.spip"
        save_patterns(path, pset)
        blob = bytearray(path.read_bytes())
        # flip one sign so the mask is no longer a Hadamard row
        blob[15] = 0xFF  # -1 instead of +1 in two's complement int8
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not a Walsh-Hadamard row"):
            load_patterns(path)

    def test_truncated_payload(self, tmp_path):
        pset = walsh_hadamard_patterns(4, 4)
        path = tmp_path / "short.spip"
        save_patterns(path, pset)
        blob = path.read_bytes()[:-5]
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="expected"):
            load_patterns(path)


@st.composite
def pattern_sets(draw, max_count=None):
    """A PatternSet of order 2-32 over distinct random Hadamard rows."""
    order = draw(st.sampled_from([2, 4, 8, 16, 32]))
    n_pixels = order * order
    count = draw(st.integers(1, min(n_pixels, max_count or n_pixels)))
    selection = draw(st.lists(st.integers(0, n_pixels - 1), min_size=count, max_size=count,
                              unique=True))
    ordering = draw(st.sampled_from(["natural", "sequency"]))
    return PatternSet(order, tuple(selection), ordering, 0.9)


class TestIndexDescriptor:
    @given(pset=pattern_sets())
    @settings(max_examples=40, deadline=None)
    def test_masks_are_the_selected_hadamard_rows(self, pset):
        n_pixels = pset.pixels
        reference = np.stack([hadamard_row(i, n_pixels) for i in pset.selection])
        assert pset.logical_masks.dtype == np.int8
        assert np.array_equal(pset.logical_masks.reshape(pset.count, n_pixels), reference)
        # the closed-form sums DGI reads: N for row 0, 0 for every balanced row
        assert np.array_equal(reference.sum(axis=1), np.where(pset.rows == 0, n_pixels, 0))

    @given(pset=pattern_sets(max_count=4), junk=st.integers(0, 255))
    @settings(max_examples=12, deadline=None)
    def test_file_round_trip_and_every_corrupted_byte(self, tmp_path_factory, pset, junk):
        path = tmp_path_factory.mktemp("spip") / "p.spip"
        save_patterns(path, pset)
        blob = path.read_bytes()
        loaded = load_patterns(path)
        assert loaded.selection == pset.selection
        save_patterns(path, loaded)
        assert path.read_bytes() == blob
        for pos in range(15, len(blob)):
            # a sign flip (0xFE) leaves a +/-1 mask; any other change leaves a bad byte
            for delta in {0xFE, junk} - {0}:
                corrupt = bytearray(blob)
                corrupt[pos] ^= delta
                path.write_bytes(bytes(corrupt))
                with pytest.raises(FormatError):
                    load_patterns(path)

    @given(pset=pattern_sets(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_synthesize_is_the_adjoint_of_project(self, pset, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((pset.order, pset.order))
        weights = rng.standard_normal(pset.count)
        lhs = project(pset, grid) @ weights
        rhs = np.sum(grid * synthesize(pset, weights))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9 * pset.pixels)
        # the same pair scaled by the modulation depth
        image = rng.standard_normal((pset.order, pset.order))
        back = encode_adjoint(weights, pset)
        scale = np.linalg.norm(image) * np.linalg.norm(back)
        assert abs(encode(image, pset) @ weights - np.sum(image * back)) <= 1e-12 * scale
        # distinct rows are orthogonal with squared norm N, which makes the
        # CS-TV Lipschitz constant m^2 * N exact
        assert np.allclose(project(pset, synthesize(pset, weights)), pset.pixels * weights,
                           rtol=1e-12, atol=1e-9 * pset.pixels)

    @given(order=st.sampled_from([2, 4, 8, 16, 32, 64, 128]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_adjoint_pair_is_exact_on_integer_data(self, order, seed):
        # integer-valued grids and weights keep every sum exact
        rng = np.random.default_rng(seed)
        n_pixels = order * order
        count = int(rng.integers(1, n_pixels + 1))
        pset = PatternSet(order, tuple(rng.permutation(n_pixels)[:count]), "natural")
        grid = rng.integers(-8, 9, size=(order, order)).astype(np.float64)
        weights = rng.integers(-8, 9, size=count).astype(np.float64)
        assert project(pset, grid) @ weights == np.sum(grid * synthesize(pset, weights))

    def test_walsh_factors_are_cached_read_only_and_padded(self):
        pset = PatternSet(64, (0, 5 * 64 + 3, 9 * 64 + 3, 9 * 64), "natural")
        factors = pset.walsh_factors
        assert factors is pset.walsh_factors
        assert factors.left.shape == (8, 64) and factors.right.shape == (64, 8)
        assert np.array_equal(factors.left[:3], patterns._hadamard(64)[[0, 5, 9]])
        assert not factors.left[3:].any() and not factors.right[:, 2:].any()
        assert factors.cells.tolist() == [0, 8 + 1, 16 + 1, 16]
        for factor in factors:
            assert not factor.flags.writeable
        for factor in factors[:4]:
            assert factor.flags.c_contiguous
        assert np.array_equal(factors.left_t, factors.left.T)
        assert np.array_equal(factors.right_t, factors.right.T)
        # the full set is the full transform
        full = walsh_hadamard_patterns(8, 64).walsh_factors
        for factor in full[:4]:
            assert np.array_equal(factor, patterns._hadamard(8))

    def test_rows_is_a_cached_read_only_index(self):
        pset = PatternSet(4, (0, 5, 3), "natural")
        assert pset.rows.dtype == np.int64
        assert pset.rows.tolist() == [0, 5, 3]
        assert pset.rows is pset.rows
        assert not pset.rows.flags.writeable

    def test_operators_never_build_the_masks(self):
        pset = walsh_hadamard_patterns(16, 64)
        image = IntensityImage(values=np.random.default_rng(0).random((16, 16)))
        meas = measure(image, pset, noise_sigma=0.01, seed=1)
        hspi_reconstruct(meas, pset)
        dgi_reconstruct(meas, pset)
        cstv_reconstruct(meas, pset, max_iters=3)
        prop = PropagationSpec(wavelength=833.3e-6, distance=0.5e-3, pitch=1e-4)
        loss_and_gradient(GeneratorNet(plan=(1, 4, 4, 1), seed=0), image, meas, pset, prop)
        assert "logical_masks" not in vars(pset)
        assert pset.logical_masks.shape == (64, 16, 16)
        assert "logical_masks" in vars(pset)

    def test_fingerprint_names_the_selection(self):
        a = PatternSet(4, (0, 5, 3), "natural")
        assert a.fingerprint == PatternSet(4, (0, 5, 3), "sequency").fingerprint
        assert a.fingerprint != PatternSet(4, (0, 3, 5), "natural").fingerprint
        assert a == PatternSet(4, [0, 5, 3], "natural")

    def test_rejects_row_outside_order(self):
        with pytest.raises(ParameterError):
            PatternSet(4, (16,), "natural")

    def test_rejects_a_repeated_row(self):
        # a repeated row would make synthesize keep one of its weights only
        with pytest.raises(ParameterError, match=r"^selection repeats row 5 \(positions 0 and 1\)$"):
            PatternSet(4, (5, 5), "natural")
        with pytest.raises(ParameterError, match=r"repeats row 3 \(positions 1 and 3\)"):
            PatternSet(4, (0, 3, 9, 3, 9), "natural")

    def test_empty_file_of_huge_order_is_rejected_at_the_count(self, tmp_path):
        # rejected from the header alone, before any mask of order 65536 is built
        path = tmp_path / "empty.spip"
        path.write_bytes(struct.pack("<4sHIIB", b"SPIP", 1, 65536, 0, 0))
        with pytest.raises(FormatError, match="byte 10"):
            load_patterns(path)

    def test_pattern_set_needs_a_pattern(self):
        with pytest.raises(ParameterError, match="holds 1 to N = 16 patterns"):
            PatternSet(4, (), "natural")


def _operator_cases(order, rng):
    """Sequency and natural prefixes at CR 1/256 to 1 (one mask, N - 1 and
    the full set among them) and random selections of the same sizes."""
    n_pixels = order * order
    counts = {max(1, n_pixels >> shift) for shift in (8, 6, 4, 2, 1, 0)}
    counts |= {1, min(7, n_pixels), n_pixels - 1}
    counts |= {128: {1024, 4096, 8192}, 256: {3000, 16384}}.get(order, set())
    for count in sorted(counts):
        yield walsh_hadamard_patterns(order, count, "sequency")
        yield walsh_hadamard_patterns(order, count, "natural")
        yield PatternSet(order, tuple(rng.permutation(n_pixels)[:count].tolist()), "natural")


class TestFactoredOperator:
    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_bit_identical_to_the_full_transform(self, order, rng):
        """`project` and `synthesize` multiply by the sampled Walsh rows only,
        yet give the bytes of the full transform H_n @ X @ H_n."""
        for pset in _operator_cases(order, rng):
            grid = rng.standard_normal((order, order))
            weights = rng.standard_normal(pset.count)
            assert np.array_equal(project(pset, grid), fwht(grid).ravel()[pset.rows]), pset.count
            scattered = np.zeros((order, order))
            scattered.ravel()[pset.rows] = weights
            assert np.array_equal(synthesize(pset, weights), fwht(scattered)), pset.count


class TestBlockwiseFileChecks:
    """A 128 px file of 256 masks is read and checked in 4 blocks of 64 masks
    (1 MiB each); a fault in the last block is reported as if the payload
    were checked at once."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("spip") / "p.spip"
        save_patterns(path, walsh_hadamard_patterns(128, 256))
        return path.read_bytes()

    @pytest.mark.parametrize("fault,message", [
        ("bad byte", "mask byte not +1/-1 at byte 4194318"),
        ("sign flip", "mask 255 (starting at byte 4177935) is not a Walsh-Hadamard row"),
    ])
    def test_fault_in_the_last_mask_reports_its_offset(self, tmp_path, blob, fault, message):
        corrupt = bytearray(blob)
        last = len(blob) - 1  # byte 4194318; mask 255 starts at 15 + 255 * 16384 = 4177935
        corrupt[last] = 0x03 if fault == "bad byte" else -corrupt[last] & 0xFF
        path = tmp_path / "corrupt.spip"
        path.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError) as err:
            load_patterns(path)
        assert str(err.value) == message

    def test_bad_byte_in_a_later_block_is_reported_before_a_wrong_row(self, tmp_path, blob):
        # the ±1 scan runs only once a mask fails its comparison, and then
        # over the whole payload
        corrupt = bytearray(blob)
        corrupt[16] = -corrupt[16] & 0xFF  # mask 0 is no longer a Walsh-Hadamard row
        corrupt[len(blob) - 1] = 0x03
        path = tmp_path / "corrupt.spip"
        path.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError) as err:
            load_patterns(path)
        assert str(err.value) == "mask byte not +1/-1 at byte 4194318"

    def test_repeated_mask_names_both_masks(self, tmp_path):
        masks = [hadamard_row(r, 16) for r in (0, 3, 3, 9)]
        path = tmp_path / "repeat.spip"
        path.write_bytes(struct.pack("<4sHIIB", b"SPIP", 1, 4, 4, 0) + np.stack(masks).tobytes())
        with pytest.raises(FormatError) as err:
            load_patterns(path)
        assert str(err.value) == "mask 2 (starting at byte 47) repeats mask 1"

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = call()
            return out, tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        """A 128 px set of 1024 masks, and the 16 MiB file it makes."""
        pset = walsh_hadamard_patterns(128, 1024)
        path = tmp_path_factory.mktemp("spip") / "large.spip"
        save_patterns(path, pset)
        return pset, path

    def test_load_peaks_at_a_few_blocks(self, large):
        # the file holds 16 blocks; the bound does not grow with it
        pset, path = large
        loaded, peak = self.traced_peak(lambda: load_patterns(path))
        assert loaded == pset
        assert peak <= 3 * patterns._BLOCK_BYTES + 2**19

    def test_save_peaks_at_a_few_blocks(self, tmp_path, large):
        pset, path = large
        pset = replace(pset)  # a fresh set: no masks or index cached
        pset.rows  # the selection's index, not the file
        _, peak = self.traced_peak(lambda: save_patterns(tmp_path / "p.spip", pset))
        assert (tmp_path / "p.spip").read_bytes() == path.read_bytes()
        assert peak <= 2 * patterns._BLOCK_BYTES + 2**19
        assert "logical_masks" not in vars(pset)

    @pytest.mark.parametrize("size", [-1, 1])
    def test_a_byte_short_or_long_gives_the_length_message(self, tmp_path, blob, size):
        path = tmp_path / "p.spip"
        path.write_bytes(blob[:-1] if size < 0 else blob + b"\x01")
        with pytest.raises(FormatError) as err:
            load_patterns(path)
        assert str(err.value) == (f"pattern payload has {len(blob) - 15 + size} bytes at byte 15; "
                                  f"expected {len(blob) - 15}")

    def test_a_short_read_gives_the_length_message(self, tmp_path, blob, monkeypatch):
        # the file ends before the length it was stat'ed at: a block comes up short
        path = tmp_path / "p.spip"
        path.write_bytes(blob[: len(blob) // 2])
        monkeypatch.setattr(patterns, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(
            st_size=len(blob))))
        with pytest.raises(FormatError) as err:
            load_patterns(path)
        assert str(err.value) == (f"pattern payload has {len(blob) // 2 - 15} bytes at byte 15; "
                                  f"expected {len(blob) - 15}")

    @pytest.mark.parametrize("bad_byte", [None, 7])
    def test_non_power_of_two_order_reports_a_bad_byte_first(self, tmp_path, bad_byte):
        # the masks of order 3 span three blocks; the bad byte sits in the last
        count = 2 * (patterns._BLOCK_BYTES // 9) + 5
        payload = bytearray(np.ones(count * 9, dtype=np.int8).tobytes())
        if bad_byte is not None:
            payload[-2] = bad_byte
        path = tmp_path / "p3.spip"
        path.write_bytes(struct.pack("<4sHIIB", b"SPIP", 1, 3, count, 0) + bytes(payload))
        with pytest.raises(FormatError if bad_byte else ParameterError) as err:
            load_patterns(path)
        assert str(err.value) == (f"mask byte not +1/-1 at byte {15 + count * 9 - 2}" if bad_byte
                                  else "pattern order must be a power of two >= 2, got 3")


@st.composite
def streamed_sets(draw):
    """(pattern set, block bytes): orders 2-128, block sizes from one byte to
    the module's own, and counts that span several blocks."""
    order = draw(st.sampled_from([2, 4, 8, 16, 32, 64, 128]))
    n_pixels = order * order
    block = draw(st.sampled_from([1, n_pixels - 1, 3 * n_pixels + 1, patterns._BLOCK_BYTES]))
    step = max(1, block // n_pixels)
    count = draw(st.integers(1, min(n_pixels, 4 * step + 1)))
    selection = draw(st.lists(st.integers(0, n_pixels - 1), min_size=count, max_size=count,
                              unique=True))
    ordering = draw(st.sampled_from(["natural", "sequency"]))
    return PatternSet(order, tuple(selection), ordering), block


@given(case=streamed_sets())
@settings(max_examples=40, deadline=None)
def test_streamed_file_is_the_header_and_every_mask(tmp_path_factory, case):
    pset, block = case
    path = tmp_path_factory.mktemp("spip") / "p.spip"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(patterns, "_BLOCK_BYTES", block)
        save_patterns(path, pset)
        loaded = load_patterns(path)
    header = struct.pack("<4sHIIB", b"SPIP", 1, pset.order, pset.count,
                         {"natural": 0, "sequency": 1}[pset.ordering])
    assert path.read_bytes() == header + pset.logical_masks.tobytes()
    assert loaded == pset

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlepixel.errors import FormatError
from singlepixel.field import IntensityImage
from singlepixel.pgm import quantize, read_pgm, write_pgm

from conftest import FUZZ_PHASES, damaged_loads


def image(values):
    return IntensityImage(values=np.asarray(values, float))


class TestQuantize:
    def test_endpoints(self):
        q = quantize(np.array([[0.0, 1.0], [0.5, 2.0]]))
        assert q[0, 0] == 0 and q[0, 1] == 65535
        assert q[1, 0] == 32768  # rint(0.5 * 65535) = rint(32767.5), ties to even
        assert q[1, 1] == 65535  # clipped

    def test_every_level_survives_a_round_trip(self):
        levels = np.arange(65536, dtype=np.uint16)
        back = quantize(levels.astype(float) / 65535)
        assert np.array_equal(back, levels)


class TestRoundTrip:
    def test_pixel_values_bit_exact(self, tmp_path, rng):
        img = image(rng.random((16, 16)))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        loaded, _ = read_pgm(path)
        assert np.array_equal(quantize(loaded.values), quantize(img.values))

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        img = image(rng.random((8, 8)))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, img, {"scale": "2.5"})
        loaded, comments = read_pgm(a)
        write_pgm(b, loaded, comments)
        assert a.read_bytes() == b.read_bytes()

    def test_comments_round_trip(self, tmp_path):
        img = image(np.zeros((4, 4)))
        path = tmp_path / "img.pgm"
        write_pgm(path, img, {"scale": "3.14", "method": "hspi"})
        _, comments = read_pgm(path)
        assert comments == {"scale": "3.14", "method": "hspi"}

    def test_big_endian_sample_order(self, tmp_path):
        values = np.zeros((2, 2))
        values[0, 0] = 1.0  # 65535 = 0xFFFF
        values[0, 1] = 256 / 65535  # 0x0100
        path = tmp_path / "endian.pgm"
        write_pgm(path, image(values))
        raw = path.read_bytes()
        raster = raw[-8:]
        assert raster[:2] == b"\xff\xff"
        assert raster[2:4] == b"\x01\x00"


class TestFormatErrors:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_short_raster_reports_offset(self, tmp_path):
        path = tmp_path / "short.pgm"
        # the header "P5\n2 2\n65535\n" is 3 + 4 + 6 = 13 bytes, so the
        # raster starts at byte 13 (offsets count from 0)
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(7))
        with pytest.raises(FormatError, match="byte 13;"):
            read_pgm(path)

    def test_bad_dimension_token(self, tmp_path):
        path = tmp_path / "dim.pgm"
        path.write_bytes(b"P5\nxx 2\n65535\n")
        with pytest.raises(FormatError, match="width"):
            read_pgm(path)

    def test_maxval_out_of_range(self, tmp_path):
        path = tmp_path / "maxval.pgm"
        path.write_bytes(b"P5\n2 2\n70000\n" + bytes(8))
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(path)


class TestFuzz:
    @given(h=st.sampled_from([2, 4]), w=st.sampled_from([2, 4]), seed=st.integers(0, 2**32 - 1),
           comments=st.sampled_from([{}, {"scale": "2.5"}]), junk=st.integers(1, 255))
    @settings(max_examples=20, deadline=None, phases=FUZZ_PHASES)
    def test_round_trip_and_every_damaged_copy(self, tmp_path_factory, h, w, seed, comments,
                                               junk):
        img = image(np.random.default_rng(seed).random((h, w)))
        path = tmp_path_factory.mktemp("pgm") / "img.pgm"
        write_pgm(path, img, comments)
        blob = path.read_bytes()
        loaded, got = read_pgm(path)
        assert np.array_equal(quantize(loaded.values), quantize(img.values))
        assert got == comments
        # a damaged byte may leave a valid header and raster; a truncation
        # always shortens the raster
        loads = damaged_loads(read_pgm, path, blob, junk)
        assert not [label for label in loads if label.startswith("truncated")]

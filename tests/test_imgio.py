"""PGM and CSV image exchange."""

import numpy as np
import pytest

from egmin.imgio import quantize, read_image_csv, read_pgm, write_image_csv, write_pgm


class TestPGM:
    def test_round_trip_uint8(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_float_images_are_quantized(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), [[0, 128], [255, 255]])

    def test_header_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((3, 4), dtype=np.uint8))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert len(raw) == len(b"P5\n4 3\n255\n") + 12

    def test_reads_comment_headers(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        np.testing.assert_array_equal(read_pgm(path), [[0, 1], [2, 3]])

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError):
            read_pgm(path)


class TestImageCSV:
    def test_lossless_round_trip(self, tmp_path, rng):
        img = rng.uniform(0.0, 1.0, size=(6, 4))
        path = tmp_path / "img.csv"
        write_image_csv(path, img)
        np.testing.assert_array_equal(read_image_csv(path), img)

    def test_bytes(self, tmp_path):
        path = tmp_path / "img.csv"
        write_image_csv(path, np.array([[-0.0, 5e-324], [1e300, 0.1]]))
        assert path.read_bytes() == (
            b"-0.00000000000000000e+00,4.94065645841246544e-324\r\n"
            b"1.00000000000000005e+300,1.00000000000000006e-01\r\n"
        )
        back = read_image_csv(path)
        assert back.shape == (2, 2) and np.signbit(back[0, 0]) and back[0, 1] == 5e-324

    def test_quantized_agreement_with_pgm(self, tmp_path, rng):
        img = rng.uniform(0.0, 1.0, size=(8, 8))
        write_pgm(tmp_path / "img.pgm", img)
        write_image_csv(tmp_path / "img.csv", img)
        np.testing.assert_array_equal(
            quantize(read_image_csv(tmp_path / "img.csv")),
            read_pgm(tmp_path / "img.pgm"),
        )

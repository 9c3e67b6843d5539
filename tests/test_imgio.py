"""PGM and CSV image export, read back as other tools read the files."""

import numpy as np

from egmin.imgio import quantize, write_image_csv, write_pgm


def pgm_bytes(levels) -> bytes:
    """A binary PGM of the uint8 gray levels ``levels``, as the format defines it."""
    h, w = levels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + levels.astype(np.uint8).tobytes()


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


class TestPGM:
    def test_round_trip_uint8(self, tmp_path, rng):
        # Every gray level k / 255 is written as the byte k.
        levels = rng.integers(0, 256, size=(5, 7))
        path = tmp_path / "img.pgm"
        write_pgm(path, levels / 255.0)
        assert path.read_bytes() == pgm_bytes(levels)

    def test_float_images_are_quantized(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert path.read_bytes() == pgm_bytes(np.array([[0, 128], [255, 255]]))

    def test_header_format(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((3, 4)))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert len(raw) == len(b"P5\n4 3\n255\n") + 12


class TestImageCSV:
    def test_lossless_round_trip(self, tmp_path, rng):
        img = rng.uniform(0.0, 1.0, size=(6, 4))
        path = tmp_path / "img.csv"
        write_image_csv(path, img)
        np.testing.assert_array_equal(read_csv(path), img)

    def test_bytes(self, tmp_path):
        path = tmp_path / "img.csv"
        write_image_csv(path, np.array([[-0.0, 5e-324], [1e300, 0.1]]))
        assert path.read_bytes() == (
            b"-0.00000000000000000e+00,4.94065645841246544e-324\r\n"
            b"1.00000000000000005e+300,1.00000000000000006e-01\r\n"
        )
        back = read_csv(path)
        assert back.shape == (2, 2) and np.signbit(back[0, 0]) and back[0, 1] == 5e-324

    def test_quantized_agreement_with_pgm(self, tmp_path, rng):
        img = rng.uniform(0.0, 1.0, size=(8, 8))
        write_pgm(tmp_path / "img.pgm", img)
        write_image_csv(tmp_path / "img.csv", img)
        assert (tmp_path / "img.pgm").read_bytes() == pgm_bytes(quantize(read_csv(tmp_path / "img.csv")))

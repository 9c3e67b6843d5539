"""Image export: binary PGM (P5) and flat CSV of reals.

Both formats are written for other tools to read: the PGM opens in any
image viewer, and the CSV reads back with ``np.loadtxt(path, delimiter=",")``.
"""

from __future__ import annotations

import numpy as np


def quantize(image) -> np.ndarray:
    """Map a float image to uint8 gray levels: clip to [0, 1], scale to 255."""
    img = np.asarray(image, dtype=float)
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_pgm(path, image) -> None:
    """Write an image as a binary PGM (P5, maxval 255, row-major) of its
    :func:`quantize` gray levels."""
    img = quantize(image)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {img.shape}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def write_image_csv(path, image) -> None:
    """Write a float image as CSV, one image row per line, full precision."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {img.shape}")
    np.savetxt(path, img, fmt="%.17e", delimiter=",", newline="\r\n")

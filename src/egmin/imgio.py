"""Image exchange: binary PGM (P5) and flat CSV of reals."""

from __future__ import annotations

import numpy as np


def quantize(image) -> np.ndarray:
    """Map a float image to uint8 gray levels: clip to [0, 1], scale to 255."""
    img = np.asarray(image, dtype=float)
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def write_pgm(path, image) -> None:
    """Write a binary PGM (P5, maxval 255, row-major).

    Float images are quantized; uint8 images are written as-is.
    """
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = quantize(img)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {img.shape}")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval <= 255) into a uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    # Header tokens: magic, width, height, maxval; whitespace separated,
    # with optional '#' comment lines.
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM file: magic {tokens[0]!r}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported maxval {maxval}")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(data, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).copy()


def write_image_csv(path, image) -> None:
    """Write a float image as CSV, one image row per line, full precision."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {img.shape}")
    np.savetxt(path, img, fmt="%.17e", delimiter=",", newline="\r\n")


def read_image_csv(path) -> np.ndarray:
    """Read an image written by :func:`write_image_csv`."""
    return np.loadtxt(path, delimiter=",", ndmin=2)

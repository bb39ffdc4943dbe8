"""Synthetic image generation and the BIMD dataset container format.

Images are seeded mixtures of oriented sine gratings plus soft Gaussian
blobs, quantized once to u8 so that save/load round-trips are bitwise.
The grating orientation index doubles as the probe label; orientations
are phase-jittered within a quarter period so each class stays linearly
separable from raw pixels.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import rng

MAGIC = b"BIMD"
VERSION = 1
AMPLITUDE = 0.30
BLOB_AMPLITUDE = 0.10


class FormatError(Exception):
    pass


@dataclass
class Dataset:
    """u8 image store; float views are materialized on demand."""

    pixels: np.ndarray            # [count, H, W, C] u8
    labels: np.ndarray = None     # [count] u32 or None

    def __post_init__(self):
        if self.pixels.dtype != np.uint8 or self.pixels.ndim != 4:
            raise FormatError("pixels must be u8 [count, H, W, C]")

    def __len__(self):
        return self.pixels.shape[0]

    def images(self, idx=None, dtype=np.float32):
        """Pixels scaled to [0, 1] as [batch, C, H, W]."""
        sel = self.pixels if idx is None else self.pixels[idx]
        scale = np.dtype(dtype).type(255.0)
        return np.ascontiguousarray(
            sel.transpose(0, 3, 1, 2).astype(dtype) / scale)


def gen_synthetic_dataset(image_size, count, seed, channels=1, num_classes=4,
                          noise=0.0, phase_range=0.25):
    """Deterministic labeled images: oriented gratings plus blob clutter.

    Per sample: orientation class k fixes the grating angle k*pi/C; the
    phase is jittered within phase_range periods (default a quarter
    period) and the amplitude within +-17% of AMPLITUDE, so the class
    mean pattern dominates and raw pixels stay linearly separable at the
    defaults.  Two Gaussian blobs add local structure worth
    reconstructing; `noise` adds uniform pixel noise.  phase_range=1.0
    draws phases over the full period, which zeroes the class means and
    makes orientation a nonlinear (phase-invariant) readout task.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    side = image_size
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    xx = xx / side
    yy = yy / side
    out = np.empty((count, side, side, channels), dtype=np.uint8)
    labels = np.empty(count, dtype=np.uint32)
    freq = 2.0  # cycles across the image
    for i in range(count):
        s = rng.split(seed, "sample", i)
        u = rng.uniforms(rng.split(s, "draw"), 9)
        k = int(u[0] * num_classes)
        theta = np.pi * k / num_classes
        phase = (u[1] - 0.5) * (2.0 * np.pi * phase_range)
        amp = AMPLITUDE * (0.83 + 0.34 * u[2])
        wave = np.sin(2.0 * np.pi * freq * (xx * np.cos(theta)
                                            + yy * np.sin(theta)) + phase)
        img = 0.5 + amp * wave
        for bl in range(2):
            cx, cy = u[3 + 2 * bl], u[4 + 2 * bl]
            sig = 0.08 + 0.04 * u[7 if bl == 0 else 8]
            blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig * sig))
            img = img + BLOB_AMPLITUDE * blob * (1.0 if bl == 0 else -1.0)
        if noise > 0.0:
            jit = rng.uniforms(rng.split(s, "noise"), side * side)
            img = img + noise * (jit.reshape(side, side) - 0.5)
        img = np.clip(img, 0.0, 1.0)
        q = np.round(img * 255.0).astype(np.uint8)
        out[i] = q[:, :, None] if channels == 1 else np.stack([q] * channels, -1)
        labels[i] = k
    return Dataset(pixels=out, labels=labels)


# ----- binary container -------------------------------------------------------

def save_dataset(ds, path):
    """Write the BIMD container: magic, u32 header fields, u8 pixels, labels."""
    count, h, w, c = ds.pixels.shape
    has_labels = 1 if ds.labels is not None else 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<6I", VERSION, count, h, w, c, has_labels))
        fh.write(ds.pixels.tobytes())
        if has_labels:
            fh.write(ds.labels.astype("<u4").tobytes())


def load_dataset(path):
    """Read a BIMD container; truncation or bad magic is a format error."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError(
            f"bad magic at byte 0: expected {MAGIC!r}, got {blob[:4]!r}")
    header_end = 4 + 24
    if len(blob) < header_end:
        raise FormatError(f"truncated header: file ends at byte {len(blob)}")
    version, count, h, w, c, has_labels = struct.unpack(
        "<6I", blob[4:header_end])
    if version != VERSION:
        raise FormatError(f"unsupported dataset version {version}")
    npix = count * h * w * c
    pix_end = header_end + npix
    if len(blob) < pix_end:
        raise FormatError(
            f"truncated pixel payload: need byte {pix_end}, file ends at "
            f"{len(blob)}")
    pixels = np.frombuffer(blob[header_end:pix_end], dtype=np.uint8).copy()
    pixels = pixels.reshape(count, h, w, c)
    labels = None
    if has_labels:
        lab_end = pix_end + 4 * count
        if len(blob) < lab_end:
            raise FormatError(
                f"truncated labels: need byte {lab_end}, file ends at "
                f"{len(blob)}")
        labels = np.frombuffer(blob[pix_end:lab_end], dtype="<u4").copy()
        extra = len(blob) - lab_end
    else:
        extra = len(blob) - pix_end
    if extra:
        raise FormatError(f"{extra} trailing bytes after declared payload")
    return Dataset(pixels=pixels, labels=labels)

"""BIMC checkpoint container.

Layout (little-endian throughout):
    magic 'BIMC', u32 version, u32 tensor count, then per tensor:
    u32 name length, UTF-8 name, u32 rank, rank u32 dims, payload.

Version 1 stores f32 payloads.  Version 2 inserts a u32 dtype code
(0 = f32, 1 = f64) before the rank so that f64 states round-trip
bitwise; files are written as version 1 whenever every tensor is f32.
Optimizer state travels as ordinary tensors under the reserved
'opt.m.' / 'opt.v.' / 'opt.t.' name prefixes, and one-element records
under 'meta.': `meta.step`, the steps a training checkpoint has run,
`meta.batch_size`, the batch size they ran at, and `meta.seed_hi` and
`meta.seed_lo`, the high and low 32 bits of its seed; `meta.num_blocks`,
the block count it was trained with; `meta.heads` and `meta.depth`, its
encoder's head count and layer count; and `meta.k`, the depth of an
exported backbone.
"""

import math
import os
import struct

import numpy as np

from .data import FormatError

MAGIC = b"BIMC"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(tensors, path):
    """Write a name-keyed dict of f32/f64 arrays.

    The bytes go to `<path>.tmp`, which replaces `path` only once complete,
    so a failed save leaves any earlier file at `path` intact.
    """
    items = list(tensors.items())
    all_f32 = all(np.asarray(v).dtype == np.float32 for _, v in items)
    version = 1 if all_f32 else 2
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<2I", version, len(items)))
            for name, arr in items:
                arr = np.ascontiguousarray(arr)
                if arr.dtype not in _DTYPE_CODES:
                    raise FormatError(
                        f"tensor {name!r} has unsupported dtype {arr.dtype}")
                nb = name.encode("utf-8")
                fh.write(struct.pack("<I", len(nb)))
                fh.write(nb)
                if version == 2:
                    fh.write(struct.pack("<I", _DTYPE_CODES[arr.dtype]))
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                payload = arr.astype("<f4") if version == 1 else \
                    arr.astype(_CODE_DTYPES[_DTYPE_CODES[arr.dtype]])
                fh.write(payload.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Read a BIMC file back into a name-keyed dict of arrays.  A name
    may appear once: FormatError names a repeated one and the byte its
    record starts at."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError(
            f"bad magic at byte 0: expected {MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 12:
        raise FormatError(f"truncated header: file ends at byte {len(blob)}")
    version, count = struct.unpack("<2I", blob[4:12])
    if version not in (1, 2):
        raise FormatError(f"incompatible checkpoint version {version}")
    off = 12
    out = {}

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise FormatError(
                f"truncated {what} at byte {off}: need {n} more bytes")
        chunk = blob[off:off + n]
        off += n
        return chunk

    for _ in range(count):
        start = off
        (nlen,) = struct.unpack("<I", take(4, "name length"))
        raw = take(nlen, "name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"tensor name at byte {off - nlen} is not UTF-8: {exc}") from exc
        if version == 2:
            (code,) = struct.unpack("<I", take(4, f"dtype of {name!r}"))
            if code not in _CODE_DTYPES:
                raise FormatError(f"tensor {name!r}: unknown dtype code {code}")
            dtype = _CODE_DTYPES[code]
        else:
            dtype = _CODE_DTYPES[0]
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name!r}"))
        n_items = math.prod(dims)
        payload = take(n_items * dtype.itemsize, f"payload of tensor {name!r}")
        if name in out:
            raise FormatError(
                f"tensor {name!r} at byte {start} repeats a name read before")
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after last tensor")
    return out

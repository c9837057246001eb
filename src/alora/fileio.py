"""Binary tensor container shared by checkpoint and adapter files.

Layout: 4 magic bytes, u16 LE format version, u32 LE header length, UTF-8
JSON header, then raw little-endian float32 tensor data. The header carries
a ``tensors`` list of ``{name, shape, offset}`` records whose offsets are
relative to the start of the data section.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

FORMAT_VERSION = 1

ALIGN = 64


def freeze(arrays) -> list:
    """Copies of the numeric ``arrays`` in one ``bytes`` buffer, which numpy
    will not make writeable again: read-only, C-ordered views at multiples
    of ALIGN bytes, their common base the zero-padded buffer as uint8. Arrays
    of one shape and dtype take slots of one size: one strided array yields
    their views."""
    views = [None] * len(arrays)
    for members, stack in freeze_stacked(arrays):
        for i, view in zip(members, stack):
            views[i] = view
    return views


def freeze_stacked(arrays) -> list:
    """As ``freeze``, but the copies come per shape and dtype, as pairs
    (members, stack): the indices of the arrays of that shape and dtype,
    in the order given, and the read-only (len(members), ...) array of
    their copies, so arrays given one after another are one slice of it."""
    arrays = [np.ascontiguousarray(a) for a in arrays]
    groups = {}
    for i, a in enumerate(arrays):
        groups.setdefault((a.shape, a.dtype), []).append(i)
    parts, at, layout = [], 0, []
    for (shape, dtype), members in groups.items():
        size = arrays[members[0]].nbytes
        slot = -(-size // ALIGN) * ALIGN
        pad = bytes(slot - size)
        for i in members:
            parts += (arrays[i], pad)
        layout.append((members, shape, dtype, at, slot))
        at += slot * len(members)
    whole = np.frombuffer(b"".join(parts), dtype=np.uint8)
    return [(members, np.ndarray((len(members),) + shape, dtype, whole, offset,
                                 (slot,) + arrays[members[0]].strides))
            for members, shape, dtype, offset, slot in layout]


def write_tensor_file(path, magic: bytes, header: dict, tensors) -> None:
    """Write ``tensors``, (name, array) pairs, after a JSON header."""
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    index, blobs, offset = [], [], 0
    for name, arr in tensors:
        blobs.append(np.ascontiguousarray(arr, dtype="<f4"))
        index.append({"name": name, "shape": list(np.shape(arr)), "offset": offset})
        offset += blobs[-1].nbytes
    header_bytes = json.dumps(dict(header, tensors=index), sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<HI", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def read_tensor_file(path, magic: bytes):
    """Read a tensor container: (header, {name: read-only float32 view of it})."""
    data = Path(path).read_bytes()
    if len(data) < 10:
        raise FormatError("file truncated before header", offset=len(data))
    if data[:4] != magic:
        raise FormatError(
            f"bad magic {data[:4]!r}, expected {magic!r}", offset=0)
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)
    (header_len,) = struct.unpack_from("<I", data, 6)
    header_end = 10 + header_len
    if header_end > len(data):
        raise FormatError("file truncated inside header", offset=len(data))
    try:
        header = json.loads(data[10:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid JSON: {exc}", offset=10) from exc
    if not isinstance(header, dict) or not isinstance(header.get("tensors", []), list):
        raise FormatError("header is not an object with a tensors list", offset=10)
    tensors = {}
    for entry in header.get("tensors", []):
        # Every dimension and the offset must be a non-negative int (not a bool).
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0
                        for n in entry["shape"] + [entry.get("offset")])):
            raise FormatError(f"malformed tensor index entry {entry!r}", offset=10)
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        count = math.prod(shape)
        start = header_end + offset
        end = start + 4 * count
        if end > len(data):
            raise FormatError(
                f"tensor {name!r} extends past end of file", offset=len(data))
        tensors[name] = np.frombuffer(data, "<f4", count, start).reshape(shape)
    return header, tensors

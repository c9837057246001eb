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


def write_tensor_file(path, magic: bytes, header: dict, tensors) -> None:
    """Write ``tensors`` (ordered (name, array) pairs) after a JSON header."""
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    index = []
    offset = 0
    blobs = []
    for name, arr in tensors:
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob = arr32.tobytes()
        blobs.append(blob)
        offset += len(blob)
    full_header = dict(header)
    full_header["tensors"] = index
    header_bytes = json.dumps(full_header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def read_tensor_file(path, magic: bytes):
    """Read a tensor container; returns (header dict, {name: float32 array})."""
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
        arr = np.frombuffer(data[start:end], dtype="<f4").reshape(shape)
        tensors[name] = arr.copy()  # own, writable memory
    return header, tensors

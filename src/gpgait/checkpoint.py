"""Named-tensor container used for checkpoints.

Layout:

    GPGW1\\n
    <header byte length, ASCII decimal>\\n
    <header JSON>
    <raw little-endian float32 payloads, in directory order>

The header JSON carries a config echo and the tensor directory
(name + shape per entry). Payloads are stored in the directory order,
each tensor flattened C-order.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import DataError

MAGIC = b"GPGW1\n"


def save_container(path, config: dict, tensors):
    """Write tensors (an ordered name -> ndarray mapping) with a config
    echo. Values are cast to little-endian float32."""
    directory = [{"name": name, "shape": list(arr.shape)}
                 for name, arr in tensors.items()]
    header = json.dumps({"config": config, "tensors": directory}).encode("utf-8")
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(str(len(header)).encode("ascii") + b"\n")
        fh.write(header)
        for arr in tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    os.replace(tmp, path)


def load_container(path):
    """Read back (config, {name: float64 ndarray}) from a container.

    A file that does not follow the layout (bad magic, a malformed or
    overrunning header, a config that is not an object, a shape entry
    that is negative or not an integer, a truncated payload, bytes after
    the last payload) raises ``DataError`` naming the file.
    """
    if not os.path.exists(path):
        raise DataError(f"missing checkpoint file: {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        try:
            header_len = int(fh.readline())
            if not 0 <= header_len <= size - fh.tell():
                raise ValueError(f"header length {header_len} overruns the file")
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = header["config"]
            if not isinstance(config, dict):
                raise ValueError("config is not an object")
            entries = [(str(e["name"]), tuple(e["shape"])) for e in header["tensors"]]
            if any(type(d) is not int or d < 0
                   for _name, shape in entries for d in shape):
                raise ValueError("shape entries must be non-negative integers")
        except (ValueError, KeyError, TypeError) as e:
            raise DataError(f"{path}: malformed header: {e}") from e
        tensors = {}
        for name, shape in entries:
            nbytes = 4 * math.prod(shape)
            if nbytes > size - fh.tell():
                raise DataError(f"{path}: truncated payload for {name}")
            tensors[name] = np.frombuffer(fh.read(nbytes), dtype="<f4").astype(
                np.float64).reshape(shape)
        if fh.tell() != size:
            raise DataError(f"{path}: trailing bytes after the last payload")
    return config, tensors

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
    """Read back (config, {name: float64 ndarray}) from a container."""
    if not os.path.exists(path):
        raise DataError(f"missing checkpoint file: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        length_line = fh.readline()
        try:
            header_len = int(length_line.strip())
        except ValueError:
            raise DataError(f"{path}: malformed header length {length_line!r}")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        tensors = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 4)
            if len(raw) != count * 4:
                raise DataError(f"{path}: truncated payload for {entry['name']}")
            arr = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
            tensors[entry["name"]] = arr
    return header["config"], tensors

"""Binary container and CSV export for path batches and solver output.

Container layout (all integers little-endian unsigned 64-bit, floats IEEE
binary64 little-endian, names ASCII padded to 32 bytes):

    magic "QSMPBIN1"
    u64 metadata count, then per entry: name[32], f64 value
    u64 array count, then per array: name[32], u64 ndim, u64 dims...,
        row-major f64 data

Writes go through a temporary file and an atomic rename.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

MAGIC = b"QSMPBIN1"
_NAME_LEN = 32
#: Largest block of rows copied at once when an array is not stored in C order.
_BLOCK_BYTES = 1 << 22


def _pack_name(name: str) -> bytes:
    raw = name.encode("ascii")
    if len(raw) > _NAME_LEN:
        raise ValueError(f"name too long for container: {name!r}")
    return raw.ljust(_NAME_LEN, b"\x00")


def _unpack_name(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("ascii")


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary file handle whose content replaces ``path`` on success."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        yield handle
    os.replace(tmp, path)


def atomic_write_bytes(path: str, payload: bytes) -> None:
    with _atomic_file(path) as handle:
        handle.write(payload)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_container(path: str, metadata: dict, arrays: dict) -> None:
    """Writes each header and then each array's own buffer, so no copy of
    the whole payload is ever built. An array not stored in C order (such as
    a step-major path array) goes out in blocks of its leading-axis rows,
    each copied to C order, so no copy of the whole array is built either."""
    with _atomic_file(path) as handle:
        handle.write(MAGIC + struct.pack("<Q", len(metadata)))
        for name, value in metadata.items():
            handle.write(_pack_name(name) + struct.pack("<d", float(value)))
        handle.write(struct.pack("<Q", len(arrays)))
        for name, array in arrays.items():
            array = np.asarray(array, dtype="<f8")
            handle.write(_pack_name(name) + struct.pack(f"<{1 + array.ndim}Q", array.ndim, *array.shape))
            if array.flags.c_contiguous:
                handle.write(memoryview(array))
                continue
            rows = max(1, _BLOCK_BYTES // array[0].nbytes)
            for start in range(0, array.shape[0], rows):
                handle.write(memoryview(np.ascontiguousarray(array[start : start + rows])))


def load_container(path: str) -> tuple[dict, dict]:
    with open(path, "rb") as handle:
        payload = handle.read()
    if payload[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path} is not a batch container (bad magic)")
    offset = len(MAGIC)

    def read_u64():
        nonlocal offset
        (value,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        return value

    metadata = {}
    for _ in range(read_u64()):
        name = _unpack_name(payload[offset : offset + _NAME_LEN])
        offset += _NAME_LEN
        (value,) = struct.unpack_from("<d", payload, offset)
        offset += 8
        metadata[name] = value
    arrays = {}
    for _ in range(read_u64()):
        name = _unpack_name(payload[offset : offset + _NAME_LEN])
        offset += _NAME_LEN
        ndim = read_u64()
        shape = tuple(read_u64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += count * 8
        arrays[name] = data.copy()
    return metadata, arrays


def save_solution(path: str, grid, forward, backward) -> None:
    """Forward batch and backward pair in one container."""
    meta = {
        "M": forward.states.shape[0],
        "N": grid.N,
        "n": forward.states.shape[2],
        "k": forward.controls.shape[2],
        "dt": grid.dt,
        "d": backward.Z.shape[2],
    }
    arrays = {"states": forward.states, "controls": forward.controls, "Y": backward.Y, "Z": backward.Z}
    save_container(path, meta, arrays)


def _format_float(value: float) -> str:
    return repr(float(value))


def write_csv(path: str, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_float(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


_EXPORTED_PATHS = 64  # the first paths of the batch, in export_paths_csv


def export_paths_csv(path: str, grid, forward, backward) -> None:
    """Wide per-(path, step) table of the first paths of a batch; one column
    per state, control, and backward component."""
    m_paths = min(forward.states.shape[0], _EXPORTED_PATHS)
    n = forward.states.shape[2]
    k = forward.controls.shape[2]
    d = backward.Z.shape[2]
    header = ["path", "step", "t"]
    header += [f"x{j+1}" for j in range(n)]
    header += [f"u{j+1}" for j in range(k)]
    header += ["Y"] + [f"Z{j+1}" for j in range(d)]
    times = grid.times
    rows = []
    for m in range(m_paths):
        for i in range(grid.N + 1):
            row = [m, i, float(times[i])]
            row += [float(v) for v in forward.states[m, i]]
            row += [float(v) for v in forward.controls[m, i]]
            row.append(float(backward.Y[m, i]))
            row += [float(v) for v in backward.Z[m, i]]
            rows.append(row)
    write_csv(path, header, rows)


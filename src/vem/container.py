"""Named-tensor file container.

Layout (all integers little-endian):

    magic   4 bytes  b"VEMT"
    version 1 byte   1 or 2
    [v2 only] u32 json_len, then json_len bytes of UTF-8 JSON metadata
    entries until EOF, each:
        u32 name_len, name_len bytes UTF-8 name
        u32 rank
        rank * u32 dims
        prod(dims) float32 payload

Version 1 files have no metadata block; readers return {} for them.
Writers emit v1 when `meta` is falsy so old readers stay compatible.
Tensors are stored float32; save() casts, load() returns float32 arrays.
Every length read from a file is checked against the bytes left in it before
anything is read or allocated, and an entry whose name an earlier entry
already has is refused.

`open_replacing` is the one way `vem` writes a file: every output, this
container's and the WAV, manifest, JSON and CSV writers' alike, goes to a
temporary file beside its target and replaces the target whole when its
block ends. Nesting is the one way two files change together: the outer
file's bytes are written first, the inner file's whole block runs inside
the outer one, and the outer target is replaced last, so a failure before
that rename leaves the outer target as it was. A target that is a
directory is refused before any temporary file is made, so the outer
rename cannot meet a directory after the inner file was replaced.
"""

import contextlib
import errno
import json
import os
import struct

import numpy as np

from .errors import DataError

_MAGIC = b"VEMT"


@contextlib.contextmanager
def open_replacing(path):
    """A binary file whose bytes replace `path` when the block ends. They go
    to a temporary file beside `path` first, so a write that fails part-way
    leaves an existing file as it was and no new one behind.

    A `path` that is a directory raises `IsADirectoryError` before the
    temporary file exists. A block nested inside this one writes its file
    first and replaces it first; what is left between the two is a rename
    of `path` refused for another reason (a sticky directory owned by
    someone else, say), which comes after the inner file's rename.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_tensors(path, tensors, meta=None):
    """Write a {name: array} dict through `open_replacing`; entries land
    sorted by name so equal contents give byte-identical files regardless of
    insertion order."""
    version = 2 if meta else 1
    with open_replacing(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", version))
        if version == 2:
            blob = json.dumps(meta, sort_keys=True).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
        for name in sorted(tensors):
            arr = tensors[name]
            arr = np.asarray(arr, dtype=np.float32)  # tobytes() emits C order
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.tobytes())


def _read_exact(fh, n, what):
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    buf = fh.read(n) if n <= left else b""
    if len(buf) != n:
        raise DataError(f"truncated container: expected {n} bytes for {what}, {left} left")
    return buf


def load_tensors(path):
    """Read a container; returns (tensors dict, metadata dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise DataError(f"bad magic {magic!r}, not a tensor container")
        (version,) = struct.unpack("<B", _read_exact(fh, 1, "version"))
        if version not in (1, 2):
            raise DataError(f"unsupported container version {version}")
        meta = {}
        if version == 2:
            (jlen,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
            try:
                meta = json.loads(_read_exact(fh, jlen, "metadata").decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise DataError(f"corrupt metadata block: {exc}") from exc
            if not isinstance(meta, dict):
                raise DataError("metadata block is not a JSON object")
        tensors = {}
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise DataError("truncated container: partial entry header")
            (nlen,) = struct.unpack("<I", head)
            try:
                name = _read_exact(fh, nlen, "entry name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"entry name is not UTF-8: {exc}") from exc
            if name in tensors:
                raise DataError(f"duplicate entry name {name!r}")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"dims of {name!r}"))
            count = 1
            for d in dims:  # capped past any file's size, so wide dims stay cheap to multiply
                count = min(count * d, 2**63)
            payload = _read_exact(fh, 4 * count, f"payload of {name!r}")
            try:
                tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            except ValueError as exc:  # a zero dim beside dims too large to index
                raise DataError(f"unusable dims {dims} of {name!r}: {exc}") from exc
        return tensors, meta

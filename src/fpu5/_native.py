"""The compiled tendencies: ``_tendency.c``, built once with the
interpreter's own C compiler and loaded through ctypes.  Its two kernels,
third and fifth order, each take one pointer to an operand block, which
``operand_block`` makes.

The library is cached in this package's ``__pycache__``, named by a CRC-32
of the source text, the compiler flags and the interpreter's extension
suffix, so an edited source or another interpreter builds its own library
and never loads a stale one.  A build writes to a unique temporary file and
is published with ``os.replace``, so processes that build at once each
publish a whole library.  ``subprocess``, ``sysconfig`` and the compiler are
touched only when the cache misses: a warm load reads the source, takes the
CRC (zlib, like ctypes, is imported with numpy) and opens the library.

``-ffp-contract=off`` keeps every product apart from the sum it feeds, so
the kernel gives the bits of the numpy formula; ``-ffast-math`` or
``-march`` would not be safe.  With no working compiler, or no writable
cache, loading raises ImportError naming the command and the source.
"""
from __future__ import annotations

import ctypes
import functools
import os
import zlib
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

SOURCE = os.path.join(os.path.dirname(__file__), "_tendency.c")
CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# the interpreter's EXT_SUFFIX, without importing sysconfig on the warm path
_SUFFIX = EXTENSION_SUFFIXES[0]


def _build(path: str) -> None:
    """Compile SOURCE into the library at path, through a temporary file
    that is removed whatever happens."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile
    command = shlex.split(sysconfig.get_config_var("CC") or "cc") + list(FLAGS)
    failed = f"cannot build {SOURCE} with {shlex.join(command)}"
    try:
        os.makedirs(CACHE, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=_SUFFIX, dir=CACHE)
    except OSError as exc:
        raise ImportError(f"{failed}: no cache in {CACHE} ({exc})") from exc
    os.close(fd)
    try:
        done = subprocess.run(command + ["-o", tmp, SOURCE],
                              capture_output=True, text=True)
        if done.returncode:
            raise ImportError(f"{failed}: exit status {done.returncode}\n"
                              f"{done.stderr}")
        os.replace(tmp, path)
    except OSError as exc:
        raise ImportError(f"{failed}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load():
    """``_tendency.c``'s library with the argtypes of both kernels set, from
    the cache, built first if the cache has none for this source, these
    flags and this interpreter."""
    key = zlib.crc32(b"\0".join([Path(SOURCE).read_bytes(),
                                 " ".join(FLAGS).encode(), _SUFFIX.encode()]))
    path = os.path.join(CACHE, f"_tendency-{key:08x}{_SUFFIX}")
    if not os.path.isfile(path):
        _build(path)
    library = ctypes.CDLL(path)
    for kernel in (library.fpu5_third_order_tendency,
                   library.fpu5_fifth_order_tendency):
        kernel.argtypes = [ctypes.c_void_p]
        kernel.restype = None
    return library


# one load per process: every operator shares the library
library = functools.cache(load)


def operand_block(f, mu, d2, out):
    """A pointer to the kernels' argument, ``struct operands``: the
    addresses of the C-contiguous float64 arrays f, mu, d2 and out, then
    the rows (one mu and one d2 each) and the points in a row.  The kernels
    go through these addresses, so the pointer holds the block and the four
    arrays.  Arrays of another layout raise ValueError."""
    arrays = (f, mu, d2, out)
    rows, n = mu.size, out.shape[-1]
    if not (all(a.dtype == np.float64 and a.flags.c_contiguous for a in arrays)
            and f.shape[1:] == out.shape and mu.shape == d2.shape == (rows,)
            and out.size == rows * n):
        raise ValueError("operands do not fit struct operands")
    block = np.array([a.ctypes.data for a in arrays] + [rows, n], dtype=np.intp)
    pointer = block.ctypes.data_as(ctypes.c_void_p)
    pointer.operands = block, *arrays
    return pointer

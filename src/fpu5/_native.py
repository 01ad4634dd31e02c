"""The compiled tendency: ``_tendency.c``, built once with the
interpreter's own C compiler and loaded through ctypes.  Its one function,
``fpu5_tendency``, takes one pointer to an operand block; ``tendency`` makes
that block and every array the function reads and writes, so no array made
elsewhere reaches C.

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
    """``_tendency.c``'s library with the argtypes of ``fpu5_tendency`` set,
    from the cache, built first if the cache has none for this source,
    these flags and this interpreter."""
    key = zlib.crc32(b"\0".join([Path(SOURCE).read_bytes(),
                                 " ".join(FLAGS).encode(), _SUFFIX.encode()]))
    path = os.path.join(CACHE, f"_tendency-{key:08x}{_SUFFIX}")
    if not os.path.isfile(path):
        _build(path)
    library = ctypes.CDLL(path)
    library.fpu5_tendency.argtypes = [ctypes.c_void_p]
    library.fpu5_tendency.restype = None
    return library


# one load per process: every operator shares the library
library = functools.cache(load)


def tendency(fifth: bool, mu, d2, lead: tuple, n: int):
    """``(f, out, call)``: C-contiguous float64 arrays f, of shape
    ``(4 if fifth else 2,) + lead + (n,)`` (u, u_x and for fifth u_xx,
    u_xxx), and out, of shape ``lead + (n,)``; ``call()`` writes the
    tendency of every row into out, with one mu and one d2 per row.  call
    holds the operand block and every array it points to."""
    f = np.empty((4 if fifth else 2,) + lead + (n,))
    out = np.empty(lead + (n,))
    rows = out.size // n
    arrays = (f, np.array(mu, dtype=float).reshape(rows),
              np.array(d2, dtype=float).reshape(rows), out)
    block = np.array([a.ctypes.data for a in arrays] + [len(f), rows, n],
                     dtype=np.intp)
    pointer = block.ctypes.data_as(ctypes.c_void_p)
    pointer.operands = block, *arrays
    return f, out, functools.partial(library().fpu5_tendency, pointer)

"""The compiled fifth-order tendency: ``_tendency.c``, built once with the
interpreter's own C compiler and loaded through ctypes.

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
    """``fpu5_fifth_order_tendency`` of ``_tendency.c`` with its argtypes
    set, from the cached library, built first if the cache has none for
    this source, these flags and this interpreter."""
    key = zlib.crc32(b"\0".join([Path(SOURCE).read_bytes(),
                                 " ".join(FLAGS).encode(), _SUFFIX.encode()]))
    path = os.path.join(CACHE, f"_tendency-{key:08x}{_SUFFIX}")
    if not os.path.isfile(path):
        _build(path)
    kernel = ctypes.CDLL(path).fpu5_fifth_order_tendency
    kernel.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] * 2
    kernel.restype = None
    return kernel


# one load per process: every fifth-order operator shares the kernel
fifth_order_tendency = functools.cache(load)

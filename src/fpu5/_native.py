"""The compiled kernels of ``_tendency.c``, built once with the interpreter's
own C compiler and loaded through ctypes: ``fpu5_nonlinear``, the dealiased
nonlinear tendency of every row, and ``fpu5_if_rk4``, whole IF-RK4 steps
around the same pass.  Each takes one pointer to a loop block; ``loop``
makes that block and every array the function reads and writes, so no
array made elsewhere reaches C.

The library is loaded as a ``ctypes.PyDLL``: it holds the GIL while it
runs, so the step loop can call the pocketfft binding's transforms through
``PyObject_Call``, with argument tuples made once, and a transform's error
is raised when the call returns.  ``spectral`` hands those calls over, so
it stays the one module that names the binding.  The source includes
``Python.h``, so a build needs the interpreter's headers.

The library is cached in this package's ``__pycache__``, named by a CRC-32
of the source text, the compiler flags and the interpreter's extension
suffix, so an edited source or another interpreter builds its own library
and never loads a stale one.  A build writes to a unique temporary file and
is published with ``os.replace``, so processes that build at once each
publish a whole library.  ``subprocess``, ``sysconfig`` and the compiler are
touched only when the cache misses: a warm load reads the source, takes the
CRC (zlib, like ctypes, is imported with numpy) and opens the library.

``-ffp-contract=off`` keeps every product apart from the sum it feeds, so
each value has the bits of the numpy formula; ``-ffast-math`` or
``-march`` would not be safe.  numpy's complex product may fuse: on a host
whose numpy takes re = fma(xr, yr, -xi yi) and im = fma(xr, yi, xi yr),
the build defines ``FPU5_FMA`` and passes ``-mfma``, so C writes the same
fmas, and otherwise C takes the plain products and sums.  ``complex_rule``
probes which, before the cache key is taken, so the rule is in the key.
With no working compiler, no headers, no writable cache or a complex
product that follows neither rule, loading raises ImportError naming the
reason.
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
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
# what complex_rule's answer adds to FLAGS
RULE_FLAGS = {True: ("-mfma", "-DFPU5_FMA"), False: ()}
# the interpreter's EXT_SUFFIX, without importing sysconfig on the warm path
_SUFFIX = EXTENSION_SUFFIXES[0]


def complex_rule() -> bool:
    """Whether numpy's complex product fuses each component into one fma
    (True) or takes plain products and a sum (False).

    x = 1 + 2^-30: (x + i)(x + i) has the real part x x - 1, which is
    2^-29 + 2^-60 when fused and 2^-29 when not; (x - i)(1 + x i) has that
    imaginary part.  Any other result raises ImportError."""
    e = 2.0 ** -30
    got = (np.array([complex(1 + e, 1), complex(1 + e, -1)] * 8)
           * np.array([complex(1 + e, 1), complex(1, 1 + e)] * 8))
    for fused, low in ((True, 2 * e + e * e), (False, 2 * e)):
        if np.array_equal(got, [complex(low, 2 + 2 * e),
                                complex(2 + 2 * e, low)] * 8):
            return fused
    raise ImportError(f"numpy's complex product follows neither the fused "
                      f"nor the plain rule: {got[:2]}")


def _build(path: str, flags: tuple) -> None:
    """Compile SOURCE with flags into the library at path, through a
    temporary file that is removed whatever happens."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile
    command = (shlex.split(sysconfig.get_config_var("CC") or "cc") + list(flags)
               + ["-I" + sysconfig.get_path("include")])
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
    """``_tendency.c``'s library with the argtypes of its functions set,
    from the cache, built first if the cache has none for this source,
    these flags and this interpreter."""
    flags = FLAGS + RULE_FLAGS[complex_rule()]
    key = zlib.crc32(b"\0".join([Path(SOURCE).read_bytes(),
                                 " ".join(flags).encode(), _SUFFIX.encode()]))
    path = os.path.join(CACHE, f"_tendency-{key:08x}{_SUFFIX}")
    if not os.path.isfile(path):
        _build(path, flags)
    library = ctypes.PyDLL(path)
    library.fpu5_nonlinear.argtypes = [ctypes.c_void_p]
    library.fpu5_nonlinear.restype = ctypes.c_int
    library.fpu5_if_rk4.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t]
    library.fpu5_if_rk4.restype = ctypes.c_int
    return library


# one load per process: every operator and loop shares the library
library = functools.cache(load)


def _block(values: list, keep: tuple) -> ctypes.c_void_p:
    """A pointer to an operand block of values (addresses and integers),
    holding the block and every object in keep."""
    block = np.array(values, dtype=np.intp)
    pointer = block.ctypes.data_as(ctypes.c_void_p)
    pointer.operands = block, *keep
    return pointer


def loop(shape: tuple, mult, mask, mu, d2, rfft_call, irfft_call,
         e_half=None, e_full=None, dt=None):
    """The compiled pass on a ``struct loop`` block made here: without
    e_half, e_full and dt, ``operator(u_hat)``, one call of
    ``fpu5_nonlinear``; with them, ``advance(u_hat, steps)``, one call of
    ``fpu5_if_rk4``.  Either copies u_hat into the state, which it returns
    as a fresh array, so u_hat is not written; a u_hat of another shape
    than ``shape``, ``lead + (h,)``, raises ValueError naming both shapes.

    mult holds the rows 1, (ik), ... of the stacked transform, 2 or 4 of
    them (h modes each), mask the h-mode dealias mask, mu and d2 one value
    per row, and e_half and e_full, exp(L dt/2) and its square, the
    state's shape; without them the block holds NULL for them, dt and the
    stages.  ``rfft_call(u, out)`` and ``irfft_call(u_hat, out)`` give
    ``(function, arguments)`` of a transform into out, which C calls with
    the arrays made here."""
    h = shape[-1]
    fields = len(mult)
    f = np.empty((fields,) + shape[:-1] + (2 * (h - 1),))
    out = np.empty(f.shape[1:])
    rows = out.size // out.shape[-1]
    u, spectrum = (np.empty(shape, dtype=complex) for _ in range(2))
    stacked = np.empty((fields,) + shape, dtype=complex)
    arrays = [f, np.array(mu, dtype=float).reshape(rows),
              np.array(d2, dtype=float).reshape(rows), out, u,
              np.array(mult, dtype=complex), np.array(mask, dtype=complex),
              stacked, spectrum]
    calls = (*irfft_call(stacked, f), *rfft_call(out, spectrum))
    stepping = [] if dt is None else [
        np.array(e_half, dtype=complex), np.array(e_full, dtype=complex),
        np.array([float(dt)]), *(np.empty(shape, dtype=complex)
                                 for _ in range(3))]
    # struct loop's members in order: struct operands first
    addresses = [x.ctypes.data for x in arrays]
    block = _block(addresses[:4] + [fields, rows, f.shape[-1]] + addresses[4:]
                   + [id(x) for x in calls] + [h]
                   + ([x.ctypes.data for x in stepping] or [0] * 6),
                   (*arrays, *calls, *stepping))
    run = functools.partial(library().fpu5_if_rk4 if stepping
                            else library().fpu5_nonlinear, block)
    what = "IF-RK4 loop" if stepping else "nonlinear operator"

    def call(u_hat, *steps):
        if u_hat.shape != shape:
            raise ValueError(f"{what} built for shape {shape} "
                             f"was given shape {u_hat.shape}")
        np.copyto(u, u_hat)
        run(*steps)
        return u.copy()

    return call

"""The loader of the compiled fifth-order tendency: its build cache, the
cache key and its refusal when no compiler works.  Each test builds into a
temporary cache directory of its own."""
import functools
import os
import subprocess
import sysconfig
import threading
from pathlib import Path

import numpy as np
import pytest

from fpu5 import EquationKind, Grid, ModelParams
from fpu5 import _native
from fpu5.equations import make_nonlinear_operator


@pytest.fixture
def cache(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setattr(_native, "CACHE", str(path))
    return path


@pytest.fixture
def compiles(monkeypatch):
    """The commands the loader runs, each still run."""
    commands = []
    run = subprocess.run

    def recorded(command, *args, **kwargs):
        commands.append(command)
        return run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recorded)
    return commands


def test_the_kernel_computes_the_tendency(cache):
    # two rows with their own mu and delta^2, against the formula in numpy
    kernel = _native.load()
    rng = np.random.default_rng(5)
    f = rng.standard_normal((4, 2, 16))
    mu, d2 = np.array([0.3, -0.0]), np.array([0.36, 1.96])
    out = np.empty((2, 16))
    kernel(f.ctypes.data, mu.ctypes.data, d2.ctypes.data, out.ctypes.data, 2, 16)
    u, ux, uxx, uxxx = f
    m, d = mu[:, None], d2[:, None]
    w = m * u * u - u
    expected = w * (ux + d * uxxx) + d * ux * ((4.0 * m * u - 2.0) * uxx + m * ux * ux)
    assert out.tobytes() == expected.tobytes()


def test_a_second_load_reuses_the_cached_library(cache, compiles):
    _native.load()
    assert len(compiles) == 1
    assert compiles[0][-1] == _native.SOURCE
    (library,) = os.listdir(cache)
    _native.load()
    assert len(compiles) == 1
    assert os.listdir(cache) == [library]


def test_a_changed_source_is_built_under_a_new_key(cache, compiles, tmp_path,
                                                   monkeypatch):
    _native.load()
    edited = tmp_path / "_tendency.c"
    edited.write_text(Path(_native.SOURCE).read_text() + "/* edited */\n")
    monkeypatch.setattr(_native, "SOURCE", str(edited))
    _native.load()
    assert [command[-1] for command in compiles] == [
        os.path.join(os.path.dirname(_native.__file__), "_tendency.c"),
        str(edited)]
    assert len(os.listdir(cache)) == 2


def test_loads_at_once_each_publish_a_whole_library(cache):
    # more builds than cores race into an empty cache: each publishes with
    # os.replace, so one library is left, it loads, and no temporary file is
    kernels, errors = [], []

    def load():
        try:
            kernels.append(_native.load())
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=load) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    assert len(kernels) == 3
    (library,) = os.listdir(cache)
    assert library.startswith("_tendency-")


@pytest.mark.parametrize("compiler, reason", [
    ("fpu5-no-such-cc", "No such file"), ("false", "exit status 1")])
def test_no_working_compiler_is_an_import_error(cache, monkeypatch, compiler,
                                                reason):
    # the message names the command and the source, and the failed build
    # leaves no file behind; a fifth-order operator cannot be built, a
    # third-order one still can
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: compiler)
    with pytest.raises(ImportError) as info:
        _native.load()
    message = str(info.value)
    assert f"cannot build {_native.SOURCE} with {compiler} -O2" in message
    assert reason in message
    assert os.listdir(cache) == []
    monkeypatch.setattr(_native, "fifth_order_tendency",
                        functools.cache(_native.load))
    grid, params = Grid(20.0, 64), ModelParams(1.0, 0.1)
    with pytest.raises(ImportError, match="cannot build"):
        make_nonlinear_operator(EquationKind.FPU5, params, grid)
    make_nonlinear_operator(EquationKind.GARDNER, params, grid)

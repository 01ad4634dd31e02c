"""The compiled pass and its loader: an operator holding what C reads,
the build cache, the cache key, the refusal when no compiler works and a
strict compile of the source.  Each test that loads
builds into a temporary cache directory of its own."""
import functools
import gc
import os
import shlex
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


def test_an_operator_holds_every_array_its_kernel_reads():
    # the kernel reads through addresses only: an operator whose operand
    # block, mu or delta^2 were freed would read what is allocated there
    # next, here the arrays of other operators built after a collection
    g = Grid(20.0, 64)
    params = [ModelParams(0.8, 0.4), ModelParams(1.2, 0.1)]
    u_hat = np.fft.rfft(np.random.default_rng(3).standard_normal((2, g.n)))
    for kind in EquationKind:
        op = make_nonlinear_operator(kind, params, g)
        gc.collect()
        others = [make_nonlinear_operator(kind, [ModelParams(2.0, 0.05)] * 2, g)
                  for _ in range(20)]
        fresh = make_nonlinear_operator(kind, params, g)
        assert op(u_hat).tobytes() == fresh(u_hat).tobytes()
        del others  # alive until op has run


def test_the_source_compiles_cleanly_as_strict_c99():
    # the compiler _native._build runs, with every warning an error, under
    # either complex rule; the build's own FLAGS stay as they are, since
    # they are the cache key
    for rule in _native.RULE_FLAGS.values():
        command = shlex.split(sysconfig.get_config_var("CC") or "cc") + [
            "-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Werror",
            "-fsyntax-only", *rule, "-I" + sysconfig.get_path("include"),
            _native.SOURCE]
        done = subprocess.run(command, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


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
    # leaves no file behind; no operator of any kind can be built
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: compiler)
    with pytest.raises(ImportError) as info:
        _native.load()
    message = str(info.value)
    assert f"cannot build {_native.SOURCE} with {compiler} -O3" in message
    assert reason in message
    assert os.listdir(cache) == []
    monkeypatch.setattr(_native, "library", functools.cache(_native.load))
    grid, params = Grid(20.0, 64), ModelParams(1.0, 0.1)
    for kind in EquationKind:
        with pytest.raises(ImportError, match=f"cannot build .* with {compiler}"):
            make_nonlinear_operator(kind, params, grid)


def test_a_cache_that_cannot_be_made_is_an_import_error(tmp_path,
                                                        monkeypatch, compiles):
    # the cache would sit under a regular file, so no directory can be made
    # there, whoever runs the test; the message names the cache, and no
    # compiler runs
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache = str(blocker / "cache")
    monkeypatch.setattr(_native, "CACHE", cache)
    with pytest.raises(ImportError, match="no cache in") as info:
        _native.load()
    assert cache in str(info.value)
    assert compiles == []
    assert os.listdir(tmp_path) == ["blocker"]

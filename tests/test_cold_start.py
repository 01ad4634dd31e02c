"""Cold start: importing the package and stepping runs import no scipy
Python module, and, once the compiled tendency is built, none of the
modules that build it.

The one scipy file they load is the pocketfft extension that
``fpu5.spectral`` loads straight from its file, under its own dotted name
but kept out of ``sys.modules``; ``import scipy.fft`` would cost more than
the whole import of the package.  Only the elliptic solutions need
``scipy.special`` and only shape scores need ``scipy.optimize``; each is
imported inside the function that first calls it.  The probe runs in a
fresh interpreter, so ``sys.modules`` there holds exactly what the package
itself loaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpu5
from fpu5 import _native

SRC = Path(fpu5.__file__).resolve().parents[1]

PROBE = """
import json
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


import fpu5
import fpu5.cli
from fpu5 import (EquationKind, Grid, InitialCondition, ModelParams,
                  SimulationConfig, WeierstrassP, kink_validation,
                  linear_symbol, make_nonlinear_operator, run)
from fpu5.experiments import build_initial_condition

seen = {"import": scipy_modules(),
        "binding": fpu5.spectral._pocketfft.__name__}
params = ModelParams(delta=0.6, mu=2.0)
grid = Grid(20.0, 32)
for kind in EquationKind:
    linear_symbol(kind, params, grid)
    make_nonlinear_operator(kind, params, grid)
    for ic in (InitialCondition("kdv5_soliton", k=1.0),
               InitialCondition("kink_pair"), InitialCondition("cosine")):
        config = SimulationConfig(kind=kind, params=params, grid=grid,
                                  t_end=4e-3, dt=1e-3, initial_condition=ic)
        build_initial_condition(config)
        run(config)
kink_validation(params, Grid(64.0, 128), dt=1e-3, t_end=4e-3)
assert fpu5.cli.main(["painleve", "--mu", "1", "--delta", "1",
                      "--out", sys.argv[1]]) == 0
seen["stepping"] = scipy_modules()
seen["build"] = sorted(m for m in ("hashlib", "subprocess", "sysconfig")
                       if m in sys.modules)
WeierstrassP(1.0, 0.3)(0.5)
seen["elliptic"] = scipy_modules()
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    # the compiled tendency is built here, so the probe loads it from
    # the cache as every run after the first does
    _native.library()
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = tmp_path_factory.mktemp("painleve")
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(seen):
    assert seen["import"] == []


def test_import_loads_the_pocketfft_binding_outside_sys_modules(seen):
    assert seen["binding"] == "scipy.fft._pocketfft.pypocketfft"
    assert seen["import"] == []


def test_stepping_and_kink_validation_load_no_scipy(seen):
    assert seen["stepping"] == []


def test_stepping_with_a_built_kernel_starts_no_build_tools(seen):
    # a cached kernel loads without the compiler's imports: set-up time
    # pays for no subprocess, hash or sysconfig module
    assert seen["build"] == []


def test_first_elliptic_evaluation_loads_scipy_special(seen):
    assert "scipy.special" in seen["elliptic"]

"""Lean service start: what ``python -m repro.service`` loads, and lazy exports.

The server only accumulates perturbed reports, so its process start is
mostly imports.  These tests pin the three things that keep it lean:

* **Import set.**  Importing the server entry point loads neither the
  estimator, sketch, sweep and data stack nor the package ``__init__``
  neighbours it never calls.
* **No numpy, no thread.**  ``import repro`` and ``import repro.service``
  load no numpy, and the entry point starts no OpenBLAS worker pool
  unless the caller asks for one through ``OPENBLAS_NUM_THREADS``.
* **Lazy exports.**  Every public name of every package with lazy
  exports still resolves, is listed by ``dir()``, binds under
  ``from pkg import *``, and an unknown name is an ``AttributeError``.

The first two run in fresh interpreters: the test process has imported
everything already.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose ``__init__`` exports names lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.api",
    "repro.core",
    "repro.distributed",
    "repro.service",
    "repro.temporal",
    "repro.sketches",
    "repro.privacy",
    "repro.join",
    "repro.reliability",
)

#: Modules (and whole packages) the server entry point must not load.
NOT_LOADED_BY_SERVER = (
    "repro.experiments",
    "repro.mechanisms",
    "repro.data",
    "repro.analysis",
    "repro.join",
    "repro.api.estimators",
    "repro.core.plus",
    "repro.core.fap",
    "repro.core.estimator",
    "repro.core.protocol",
    "repro.core.aggregator",
    "repro.distributed.collectors",
    "repro.distributed.planner",
    "repro.privacy.audit",
    "repro.service.client",
    "repro.sketches.agms",
    "repro.sketches.fast_agms",
    "repro.sketches.count_min",
    "repro.sketches.count_sketch",
    "repro.sketches.count_mean",
    "repro.sketches.compass",
)


def fresh_python(code: str, **env_overrides: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = {
        key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"
    }
    env["PYTHONPATH"] = str(SRC)
    env.update(env_overrides)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout)


# ---------------------------------------------------------------------------
# Import set
# ---------------------------------------------------------------------------
def test_server_entry_point_loads_only_what_it_uses():
    loaded = fresh_python(
        "import json, sys, repro.service.__main__; "
        "print(json.dumps({'modules': sorted(sys.modules)}))"
    )["modules"]
    assert "repro.service.core" in loaded  # the probe really imported the server
    unwanted = [
        module
        for module in loaded
        if any(
            module == banned or module.startswith(banned + ".")
            for banned in NOT_LOADED_BY_SERVER
        )
    ]
    assert unwanted == []


@pytest.mark.parametrize("package", ["repro", "repro.service"])
def test_package_import_does_not_load_numpy(package):
    probe = fresh_python(
        f"import json, sys, {package}; "
        "print(json.dumps({'numpy': 'numpy' in sys.modules}))"
    )
    assert probe == {"numpy": False}


def test_attribute_path_through_an_unloaded_subpackage():
    probe = fresh_python(
        "import json, repro; "
        "print(json.dumps({'name': repro.core.LDPJoinSketch.__name__}))"
    )
    assert probe == {"name": "LDPJoinSketch"}


# ---------------------------------------------------------------------------
# No BLAS thread pool
# ---------------------------------------------------------------------------
_THREAD_PROBE = (
    "import json, os, sys, repro.service.__main__; "
    "print(json.dumps({'numpy': 'numpy' in sys.modules, "
    "'threads': len(os.listdir('/proc/self/task')), "
    "'blas': os.environ.get('OPENBLAS_NUM_THREADS')}))"
)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs Linux /proc task listing"
)
def test_server_entry_point_starts_no_thread():
    probe = fresh_python(_THREAD_PROBE)
    assert probe["numpy"]  # the server stack really imported numpy
    assert probe["threads"] == 1
    assert probe["blas"] == "1"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs Linux /proc task listing"
)
def test_caller_blas_setting_is_honoured():
    probe = fresh_python(_THREAD_PROBE, OPENBLAS_NUM_THREADS="2")
    assert probe["blas"] == "2"


# ---------------------------------------------------------------------------
# Lazy exports
# ---------------------------------------------------------------------------
def _defining_modules(name: str, value: object) -> list:
    """Loaded ``repro`` modules, re-exporters aside, binding ``name`` to ``value``."""
    return [
        module_name
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        and module_name not in LAZY_PACKAGES
        and vars(module).get(name) is value
    ]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        assert _defining_modules(name, value), f"{package}.{name}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_and_star_import_cover_all(package):
    module = importlib.import_module(package)
    listed = dir(module)
    assert listed == sorted(listed)
    assert set(module.__all__) <= set(listed)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")
    assert not hasattr(module, "__no_such_dunder__")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_export", {})

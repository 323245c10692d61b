"""Lazy package namespaces: what each entry point imports."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)

#: What the job service never runs in its own process.
TRIAL_ONLY = ("experiments", "attacks", "hw", "kernel", "secure", "core")


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves(name):
    package = importlib.import_module(name)
    assert package.__all__, name
    for member in package.__all__:
        assert getattr(package, member) is not None, f"{name}.{member}"


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_lazy_members(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_no_member_shadows_a_submodule(name):
    # importing a submodule binds its name on the package, which would
    # replace a member of the same name
    package = importlib.import_module(name)
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    assert not submodules & set(package.__all__)


def test_star_import_and_quickstart():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    from repro import build_stack, run_detection_experiment

    assert callable(build_stack) and callable(run_detection_experiment)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'repro.hw'.*'NoSuchThing'"):
        importlib.import_module("repro.hw").NoSuchThing
    with pytest.raises(AttributeError, match="'repro'.*'__wrapped__'"):
        repro.__wrapped__


def test_submodule_attribute_access():
    import repro.hw

    assert repro.hw.platform.Machine is repro.hw.Machine
    assert repro.kernel.sched.scheduler.RichScheduler is repro.kernel.RichScheduler


@pytest.mark.parametrize(
    "module", ["repro.service.server", "repro.service.client", "repro.service.jobs"]
)
def test_service_modules_load_no_trial_code(module):
    loaded = run_python(
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    heavy = [m for m in loaded if m.split(".")[1] in TRIAL_ONLY]
    assert heavy == [], heavy


def test_trial_function_module_preloads_the_trial_path():
    added = run_python(
        "import json, sys\n"
        "from repro.campaign.runner import TRIAL_FN\n"
        "from repro.service.executors import resolve_function\n"
        "fn = resolve_function(TRIAL_FN)\n"
        "before = set(sys.modules)\n"
        "fn({'experiment_id': 'E1', 'seed': 2019})\n"
        "fn({'experiment_id': 'E9', 'seed': 2019})\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before"
        " if m.startswith('repro'))))"
    )
    assert added == []

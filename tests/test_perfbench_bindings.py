"""The benchmark's tracer binds library names; a rename must fail here,
not as a crashed traced benchmark run."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

import pytest

from curselab import checks, cli, fooling, geometry, hull, quadrature, rng, volume  # noqa: F401

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _owner(module_name: str, path: str):
    owner = sys.modules[f"{tracer.PACKAGE}.{module_name}"]
    *outer, attr = path.split(".")
    for part in outer:
        owner = owner.__dict__[part]
    return owner, attr


@pytest.mark.parametrize("target", tracer.TARGETS, ids=[t[2] for t in tracer.TARGETS])
def test_tracer_target_resolves(target):
    owner, attr = _owner(target[0], target[1])
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])


def test_tracer_install_then_uninstall_restores_every_original():
    modules = [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == tracer.PACKAGE or key.startswith(tracer.PACKAGE + "."))
    ]
    namespaces = [vars(mod) for mod in modules]
    namespaces += [_owner(m, p)[0].__dict__ for m, p, *_ in tracer.TARGETS if "." in p]
    before = [dict(ns) for ns in namespaces]
    t = tracer.Tracer()
    t.install()
    try:
        # Wrapped wherever bound: a module function and a method.
        assert hull.project_onto_hull is not before[modules.index(hull)]["project_onto_hull"]
        assert hasattr(fooling.FoolingFunction.__call__, "__wrapped__")
    finally:
        t.uninstall()
    for ns, saved in zip(namespaces, before):
        assert ns.keys() == saved.keys()
        for key, obj in saved.items():
            assert ns[key] is obj, key


def test_benchmark_selftest_runs_against_this_checkout(tmp_path):
    # A copy, so the selftest's run records stay out of the checkout; its
    # src/ is this one, so perfbench's calls must still bind to the library.
    root = TRACER_PATH.parents[1]
    shutil.copytree(
        root / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("runs", "__pycache__"),
    )
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(root / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

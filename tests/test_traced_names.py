"""The benchmark's tracer binds cstree functions by name; each must exist."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _tracer()
    assert tracer.FUNCTIONS
    for name, _ in tracer.FUNCTIONS:
        module, func = name.split(".")
        target = getattr(importlib.import_module(f"cstree.{module}"), func, None)
        assert callable(target), name
    cli = importlib.import_module("cstree.cli")
    for command in tracer.CLI_COMMANDS:
        assert callable(getattr(cli, f"_cmd_{command}", None)), command
    poly = importlib.import_module("cstree.poly")
    for method, _, _ in tracer.METHODS:
        assert callable(poly.SparsePoly.__dict__.get(method)), method

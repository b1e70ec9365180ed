"""The benchmark's tracer wraps public functions by module and name, and
its workloads check their results; a rename or a wrong result must fail
here rather than in a benchmark run."""

import importlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_every_traced_layer_resolves():
    missing = [
        f"{mod}.{fn}" for mod, fn, _name, _counts in LAYERS
        if not callable(getattr(importlib.import_module(f"mobilemem.{mod}"), fn, None))
    ]
    assert not missing, f"bench/tracing.py LAYERS names no function: {missing}"


def test_compile_deep_output_expands_to_the_known_family():
    # the benchmark's own correctness check of the compiled W3 system,
    # on the inputs of seed 1 as bench/run.py builds them
    deep = WORKLOADS["compile-deep"]
    inputs = deep.make_inputs(random.Random(f"{deep.name}:1"))
    assert deep.verify(inputs)


def test_a_traced_wide_run_records_one_step_span_per_step():
    # ``run`` keeps calling ``engine.step``, ``engine.maximal_choices`` and
    # ``core.canonicalize`` by module-global lookup, so the tracer's
    # wrappers see every step of a clocked run. Record keys are rendered
    # when read and no step can halt (the least remaining timer falls each
    # step), so an op renders two keys: the initial one and the final one
    # it reads.
    from tracing import Tracer

    wide = WORKLOADS["sim-wide"]
    ops = wide.load(wide.make_inputs(random.Random(f"{wide.name}:1")))
    tracer = Tracer()
    tracer.install()
    try:
        results = [op() for op in ops]
    finally:
        tracer.uninstall()
    assert all(ok for ok, _units in results)
    steps = sum(units for _ok, units in results)
    names = [span[0] for span in tracer.spans]
    assert names.count("engine.step") == names.count("engine.find_instances") == steps > 0
    assert names.count("core.canonicalize") == 2 * len(ops)


def test_runs_that_alternate_two_parsed_systems_build_two_tables(monkeypatch):
    # each parsed system keeps its own rule table, so a caller that
    # alternates systems, as the sim-dense workload does, builds each once
    from conftest import count_calls
    from mobilemem.engine import run
    from mobilemem.sysfile import parse_system

    dense = WORKLOADS["sim-dense"]
    inputs = dense.make_inputs(random.Random(f"{dense.name}:1"))
    systems = [parse_system(item.text) for item in inputs[:2]]
    tables = count_calls(monkeypatch, "mobilemem.engine._timed_table")
    for i in range(8):
        sf = systems[i % 2]
        assert len(run(sf.config, sf.rules, 1).records) == 1
    assert tables.n == 2

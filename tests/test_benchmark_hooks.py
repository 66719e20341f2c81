"""The benchmark's span tracer still finds what it hooks in foagen.

``perfbench/spans.py`` wraps functions by module and attribute name and
swaps the ``ThreadPoolExecutor`` binding of some modules. A rename or a
moved pool in ``src/`` would silently drop a span or a worker-utilisation
metric, so these tests load the tracer from its file, unchanged, and
check its hooks against the package.
"""

import argparse
import ast
import importlib
import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from foagen import cli
from foagen.flow import CfgSpec, TrainConfig, VelocityModel, euler_sample, train
from foagen.panorama import write_frame

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS_PATH = SPANS_PATH.with_name("workloads.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their defining module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_target_resolves_to_a_callable(spans):
    assert spans.TARGETS
    for target in spans.TARGETS:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target.name


def test_every_pool_module_binds_thread_pool_executor(spans):
    for name in spans.POOL_MODULES:
        module = importlib.import_module(name)
        assert module.ThreadPoolExecutor is ThreadPoolExecutor, name


def test_cut_fov_renders_in_the_traced_pool(spans, tmp_path, capsys):
    write_frame(tmp_path / "erp.fframe", np.random.default_rng(2).random((8, 16, 1)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main([
            "cut-fov", str(tmp_path / "erp.fframe"), str(tmp_path / "cuts"),
            "--preset", "2cuts", "--width", "4", "--height", "4", "--jobs", "2",
        ])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    span_names, busy = tracer.take()
    assert len(busy) == 2  # one pool task per cut
    assert [s.name for s in span_names].count("panorama.erp_to_perspective") == 2
    assert cli.ThreadPoolExecutor is ThreadPoolExecutor


def test_flow_spans_see_the_network_calls_of_training_and_sampling(spans):
    # The tracer reads rows and flops from positional arguments, so the
    # network methods must stay on these paths with their signatures.
    rng = np.random.default_rng(3)
    model = VelocityModel.initialize(2, 2 + 3, (8,), rng)
    dataset = [(rng.standard_normal((4, 2)), rng.standard_normal(3)) for _ in range(6)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        train(model, dataset, TrainConfig(batch_size=3, steps=2, seed=1))
        euler_sample(model, 2, CfgSpec(3.0), global_cond=np.ones(3), frames=5, rng=rng)
    finally:
        tracer.uninstall()
    recorded, busy = tracer.take()
    net = "flow.network"
    metrics = spans.layer_metrics(recorded, busy, {})
    assert metrics["flow.training.cfm_loss.calls"] == 2  # train scores each table through it
    assert metrics[f"{net}.forward_cached.calls"] == 2  # one frame table per step
    assert metrics[f"{net}.forward.calls"] == 4  # conditional and unconditional per step
    assert metrics[f"{net}.forward_cached.rows"] == 12
    assert metrics[f"{net}.forward.rows"] == 5
    backward = [s for s in recorded if s.name == f"{net}.backward"]
    assert len(backward) == 2 and all(s.flop > 0 for s in backward)  # flops scale with rows


def _benchmark_command_lines():
    """The literal argument lists of every ``ops.cli(...)`` and
    ``cli.main([...])`` call in the benchmark's workloads, read without
    running it. An element that is not a literal is None."""
    lines = []
    for node in ast.walk(ast.parse(WORKLOADS_PATH.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner = node.func.value
        if not isinstance(owner, ast.Name):
            continue
        if (owner.id, node.func.attr) == ("ops", "cli"):
            args = node.args
        elif (owner.id, node.func.attr) == ("cli", "main") and isinstance(node.args[0], ast.List):
            args = node.args[0].elts  # not Ops.cli's own cli.main(argv)
        else:
            continue
        lines.append([a.value if isinstance(a, ast.Constant) else None for a in args])
    return lines


def test_the_parser_accepts_every_benchmark_flag_and_choice():
    # A flag the benchmark passes, dropped from the parser, would make
    # every run of that workload fail instead of this test.
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    lines = _benchmark_command_lines()
    seen = set()
    for argv in lines:
        command = argv[0]
        assert isinstance(command, str) and command in subparsers.choices, argv
        options = subparsers.choices[command]._option_string_actions
        for flag, value in zip(argv, [*argv[1:], None]):
            if not (isinstance(flag, str) and flag.startswith("--")):
                continue
            assert flag in options, f"{command} {flag}"
            seen.add((command, flag))
            action = options[flag]
            if action.choices is not None and value is not None:
                parsed = action.type(str(value)) if action.type else str(value)
                assert parsed in action.choices, f"{command} {flag} {value}"
    assert {("clean", "--jobs"), ("cut-fov", "--jobs"), ("eval-doa", "--jobs")} <= seen
    assert ("cut-fov", "--preset") in seen and ("spatialize", "--encoding") in seen

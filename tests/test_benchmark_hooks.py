"""The benchmark's span tracer still finds what it hooks in foagen.

``perfbench/spans.py`` wraps functions by module and attribute name and
swaps the ``ThreadPoolExecutor`` binding of some modules. A rename or a
moved pool in ``src/`` would silently drop a span or a worker-utilisation
metric, so these tests load the tracer from its file, unchanged, and
check its hooks against the package.
"""

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
    assert metrics[f"{net}.forward_cached.calls"] == 2  # one frame table per step
    assert metrics[f"{net}.forward.calls"] == 4  # conditional and unconditional per step
    assert metrics[f"{net}.forward_cached.rows"] == 12
    assert metrics[f"{net}.forward.rows"] == 5
    backward = [s for s in recorded if s.name == f"{net}.backward"]
    assert len(backward) == 2 and all(s.flop > 0 for s in backward)  # flops scale with rows

"""Span tracer that times foagen's public functions from outside the package.

Each traced function is replaced at every module (or class) that binds it,
because ``from … import`` copies the name into the importing module. A
span records its name, start, end, parent span, thread and operation id.
Spans stay in memory while a pass runs; the benchmark writes them out
and turns them into per-layer metrics after the pass.

The thread pools in ``foagen.cli`` and ``foagen.cleaning`` are swapped for
a subclass that carries the submitting span into the worker thread, so
worker spans get the right parent, and records each task's busy interval
for the worker-utilisation metric.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


def _forward_rows(args, result):
    return args[3].shape[0]


def _forward_flop(args, result):
    # One dense layer costs 2 * rows * fan_in * fan_out; w.size is fan_in * fan_out.
    return 2.0 * args[3].shape[0] * sum(w.size for w in args[0].weights)


def _backward_flop(args, result):
    # Weight and input gradients cost about twice the forward pass.
    return 4.0 * args[2].shape[0] * sum(w.size for w in args[0].weights)


def _file_mb(arg_index):
    def measure(args, result):
        return os.path.getsize(args[arg_index]) / 1e6
    return measure


def _mpix(args, result):
    return result.shape[0] * result.shape[1] / 1e6


def _frames_compared(args, result):
    # stationarity_verdict compares frames 0, k, 2k, ...: comparisons + 1 distinct frames.
    return result.comparisons + 1


@dataclass(frozen=True)
class Target:
    """One traced function: its layer, defining module and attribute path."""

    layer: str
    module: str
    attr: str
    measure: object = None  # (args, result) -> computed work of one successful call
    flop: object = None  # (args, result) -> computed floating-point operations
    inline_under: tuple[str, ...] = ()  # no own span when called directly from these

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr.rsplit('.', 1)[-1]}"


TARGETS = (
    Target("flow.training", "foagen.flow.training", "train"),
    Target("flow.training", "foagen.flow.training", "cfm_loss"),
    Target("flow.network", "foagen.flow.network", "VelocityModel.forward_cached",
           _forward_rows, _forward_flop, inline_under=("flow.network.forward",)),
    Target("flow.network", "foagen.flow.network", "VelocityModel.forward", _forward_rows, _forward_flop),
    Target("flow.network", "foagen.flow.network", "VelocityModel.backward", flop=_backward_flop),
    Target("flow.network", "foagen.flow.network", "VelocityModel.apply_gradients"),
    Target("flow.network", "foagen.flow.network", "build_condition"),
    Target("flow.network", "foagen.flow.network", "save_model"),
    Target("flow.network", "foagen.flow.network", "load_model"),
    Target("flow.path", "foagen.flow.path", "as_latent"),
    Target("flow.path", "foagen.flow.path", "sample_time"),
    Target("flow.masking", "foagen.flow.masking", "make_mask"),
    Target("flow.sampling", "foagen.flow.sampling", "euler_sample"),
    Target("flow.sampling", "foagen.flow.sampling", "cfg_velocity"),
    Target("conditioning", "foagen.conditioning", "upsample_features"),
    Target("audio_io", "foagen.audio_io", "read_wav", _file_mb(0)),
    Target("audio_io", "foagen.audio_io", "write_wav", _file_mb(1)),
    Target("audio_io", "foagen.audio_io", "read_matrix"),
    Target("audio_io", "foagen.audio_io", "write_matrix"),
    Target("foa", "foagen.foa", "spatialize_mono"),
    Target("foa", "foagen.foa", "estimate_doa"),
    Target("metrics", "foagen.metrics", "multires_stft_distance"),
    Target("metrics", "foagen.metrics", "eval_doa_batch"),
    Target("panorama", "foagen.panorama", "read_frame", _file_mb(0)),
    Target("panorama", "foagen.panorama", "frame_mse"),
    Target("panorama", "foagen.panorama", "stationarity_verdict", _frames_compared),
    Target("panorama", "foagen.panorama", "erp_to_perspective", _mpix),
    Target("panorama", "foagen.panorama", "write_frame"),
    Target("cleaning", "foagen.cleaning", "run_pipeline"),
    Target("cleaning", "foagen.cleaning", "window_dbfs"),
    Target("cli", "foagen.cli", "main"),
)

POOL_MODULES = ("foagen.cli", "foagen.cleaning")
POOL_COMMANDS = ("clean", "cut-fov", "eval-doa")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    failed: bool = False
    work: float = 0.0
    flop: float = 0.0


@dataclass
class Tracer:
    """Collects spans for the functions in :data:`TARGETS` while installed."""

    spans: list = field(default_factory=list)
    busy: list = field(default_factory=list)  # (op, start, end, jobs) per pool task
    op: int = 0

    def __post_init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn):
        name = target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (None, None)
            if parent[1] in target.inline_under:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._record(span_id, name, start, time.perf_counter(), parent[0], failed=True)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            work = target.measure(args, result) if target.measure else 0.0
            flop = target.flop(args, result) if target.flop else 0.0
            self._record(span_id, name, start, end, parent[0], work=work, flop=flop)
            return result

        return traced

    def _record(self, span_id, name, start, end, parent, failed=False, work=0.0, flop=0.0):
        self.spans.append(
            Span(span_id, name, start, end, parent, threading.get_ident(), self.op, failed, work, flop)
        )

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else (None, None)
                op, jobs = tracer.op, self._max_workers

                def task():
                    worker_stack = tracer._stack()
                    worker_stack.append(parent)
                    start = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.busy.append((op, start, time.perf_counter(), jobs))
                        worker_stack.pop()

                return super().submit(task)

        return TracedPool

    def install(self) -> None:
        """Replace every binding of every target, and the thread pools."""
        import foagen.cli  # noqa: F401  (loads every foagen module)

        modules = [m for n, m in list(sys.modules.items()) if n == "foagen" or n.startswith("foagen.")]
        for target in TARGETS:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, fn_name = target.attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, fn_name, self._wrap(target, getattr(cls, fn_name)))
                continue
            original = getattr(owner, target.attr)
            wrapped = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)
        pool = self._pool_class()
        for name in POOL_MODULES:
            self._set(sys.modules[name], "ThreadPoolExecutor", pool)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> tuple[list, list]:
        """Return and forget the spans and pool intervals collected so far."""
        spans, busy = self.spans, self.busy
        self.spans, self.busy = [], []
        return spans, busy


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_metrics(spans, busy, op_commands: dict[int, str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; names as in ``per_layer`` of BENCHMARK.json."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    work = defaultdict(float)
    failed = defaultdict(int)
    flop = 0.0
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += own[span.id]
        work[span.name] += span.work
        failed[span.name] += span.failed
        flop += span.flop
    out: dict[str, float] = {}
    for target in TARGETS:
        out[f"{target.name}.calls"] = calls[target.name]
        out[f"{target.name}.self_s"] = self_s[target.name]

    net = "flow.network"
    for fn in ("forward_cached", "forward"):  # mean rows per call
        n = calls[f"{net}.{fn}"]
        out[f"{net}.{fn}.rows"] = work[f"{net}.{fn}"] / n if n else 0.0
    dense_s = sum(self_s[f"{net}.{fn}"] for fn in ("forward_cached", "forward", "backward"))
    out[f"{net}.gflop_per_s"] = flop / 1e9 / dense_s if dense_s > 0 else 0.0
    for name in ("audio_io.read_wav", "audio_io.write_wav", "panorama.read_frame"):
        out[f"{name}.mb"] = work[name]
    for name in ("audio_io.read_wav", "panorama.read_frame"):
        out[f"{name}.failed"] = failed[name]
    out["panorama.erp_to_perspective.mpix"] = work["panorama.erp_to_perspective"]
    decoded = calls["panorama.read_frame"] - failed["panorama.read_frame"]
    compared = work["panorama.stationarity_verdict"]
    out["cleaning.frame_use_ratio"] = compared / decoded if decoded else 0.0

    walls = defaultdict(float)
    for span in spans:
        if span.name == "cli.main":
            walls[op_commands.get(span.op)] += span.end - span.start
    busy_s = defaultdict(float)
    jobs = {}
    for op, start, end, n in busy:
        command = op_commands.get(op)
        busy_s[command] += end - start
        jobs[command] = n
    for command in POOL_COMMANDS:
        capacity = walls[command] * jobs.get(command, 0)
        out[f"cli.{command}.worker_util"] = busy_s[command] / capacity if capacity else 0.0
    return out


def write_spans(path, spans, pass_index: int) -> None:
    """Append spans as tab-separated lines: pass, op, id, parent, thread, name, start, end, failed."""
    with open(path, "a", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                f"{pass_index}\t{s.op}\t{s.id}\t{s.parent or 0}\t{s.thread}\t{s.name}\t"
                f"{s.start:.9f}\t{s.end:.9f}\t{int(s.failed)}\n"
            )

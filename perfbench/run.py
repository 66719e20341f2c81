"""foagen benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload {mixture,infill,dataset} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root. Inputs are generated from ``--seed`` under
``.perfbench_work/`` and deleted afterwards. Set-up runs five times and
reports the median. Then the workload's pass runs repeatedly until
``--seconds`` have elapsed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json. With ``--trace 1``, passes alternate
between untraced and traced, and the JSON holds the per-layer metrics
(medians over traced passes) and ``trace.overhead_frac``. The spans of
every traced pass go to ``.perfbench_work/trace-<workload>.tsv``. Lines
before the JSON give the host, every workload throughput with its unit,
and the count of failed operations.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# Per-layer metrics derived from counts and shapes rather than timed.
COMPUTED = ("gflop_per_s", ".mb", ".mpix", ".rows", "frame_use_ratio")


def _one_malloc_arena() -> str:
    """Serve every thread from one glibc malloc arena, so peak RSS tracks live memory.

    With an arena per thread, freed frames stay in whichever worker's arena
    held them, and the peak of the same `dataset` pass read 332 to 508 MB
    from run to run; with one arena it read 315-318 MB. README.md gives the
    measurements.
    """
    M_ARENA_MAX = -8
    if platform.libc_ver()[0] != "glibc" or not ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1):
        return "default"
    return "1"


def _import_foagen():
    src = ROOT / "src"
    if not (src / "foagen" / "__init__.py").is_file():
        sys.exit(f"perfbench: no foagen sources under {src}")
    sys.path.insert(0, str(src))
    import foagen

    if Path(foagen.__file__).resolve().parent != src / "foagen":
        sys.exit(f"perfbench: imported foagen from {foagen.__file__}, not from {src}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> tuple[str, str]:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS", "unknown"))


def host_info(workload: str, seed: int, malloc_arenas: str) -> dict:
    import numpy as np
    from workloads import nproc

    blas, threads = _blas()
    return {"nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads, "malloc_arenas": malloc_arenas,
            "git_sha": _git_sha(), "workload": workload, "seed": seed}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rates(passes) -> dict[str, float]:
    """Median over passes of each throughput, from (work, seconds) pairs."""
    per_pass = defaultdict(list)
    for rates in passes:
        for name, (units, secs) in rates.items():
            if secs > 0:
                per_pass[name].append(units / secs)
    return {name: _median(values) for name, values in sorted(per_pass.items())}


def measure(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    import workloads
    from spans import Tracer, layer_metrics, write_spans

    sizes, setup, run_pass = workloads.WORKLOADS[name]
    size = sizes[size_name]
    base = ROOT / ".perfbench_work"
    work = base / f"{name}-{os.getpid()}"
    spans_path = base / f"trace-{name}.tsv"
    setup_s, setup_raw = [], []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            before = workloads.probe()
            start = time.perf_counter()
            state = setup(work, seed, size)
            secs = time.perf_counter() - start
            setup_raw.append(secs)
            setup_s.append(workloads.at_reference_speed(secs, before, workloads.probe()))

        ops = workloads.Ops()
        tracer = Tracer() if trace else None
        if trace:
            spans_path.unlink(missing_ok=True)
        plain_walls, plain_raw, traced_walls, plain_rates, layers = [], [], [], [], []
        extras = {}
        begin = time.perf_counter()
        index = 0
        while index < (2 if trace else 1) or time.perf_counter() - begin < seconds:
            traced = trace and index % 2 == 1
            ops.pass_secs = ops.pass_scaled = 0.0
            ops.tracer = tracer if traced else None
            if traced:
                tracer.install()
            try:
                rates, extras = run_pass(ops, state)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                spans, busy = tracer.take()
                layers.append(layer_metrics(spans, busy, ops.commands))
                write_spans(spans_path, spans, index)
                traced_walls.append(ops.pass_scaled)
            else:
                plain_walls.append(ops.pass_scaled)
                plain_raw.append(ops.pass_secs)
                plain_rates.append(rates)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "setup_s": _median(setup_s),
        "wall_s": _median(plain_walls),
        "raw": {"setup_s": _median(setup_raw), "wall_s": _median(plain_raw)},
        "passes": plain_walls,
        "passes_raw": plain_raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": ops.failed / ops.attempted,
        "rates": _rates(plain_rates),
        "ops": ops,
    }
    if trace:
        layer = {key: _median([m[key] for m in layers]) for key in layers[0]}
        layer.update(extras)
        layer["trace.overhead_frac"] = _median(traced_walls) / _median(plain_walls) - 1.0
        result["layers"] = layer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mixture", "infill", "dataset"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    args = parser.parse_args(argv)

    malloc_arenas = _one_malloc_arena()  # before numpy starts its threads
    _import_foagen()
    import workloads
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = host_info(args.workload, args.seed, malloc_arenas)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    ops = result["ops"]

    for key, value in host.items():
        print(f"host.{key}={value}")
    walls = result["passes"]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"wall_s.passes={len(walls)}\nwall_s.q1={q1:.6f} s\nwall_s.q3={q3:.6f} s")
    print("passes=" + " ".join(f"{w:.4f}" for w in walls) + " s")
    print("passes_raw=" + " ".join(f"{w:.4f}" for w in result["passes_raw"]) + " s")
    for key, value in result["raw"].items():
        print(f"raw.{key}={value:.6f} s")
    print(f"failed_frac={result['failed_frac']:.6f} share")
    for name, value in result["rates"].items():
        print(f"{name}={value:.6g} {workloads.RATE_UNITS[name]}")
    for failure in ops.check_failures[:20]:
        print(f"check_failed={failure}")

    if args.trace:
        spec = bench["per_layer"]
        values = result["layers"]
    else:
        spec = bench["end_to_end"]
        values = result
    metrics = {}
    for entry in spec:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        label = " computed" if any(entry["name"].endswith(c) for c in COMPUTED) else ""
        print(f"metric.{entry['name']}={value:.6g} {entry['unit']}{label}")

    print(json.dumps({"correct": not ops.check_failures, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

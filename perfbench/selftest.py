"""Self-test of the benchmark: every workload at a tiny size, traced and untraced.

    python3 perfbench/selftest.py

Checks that each run exits 0 with correct outputs, that it emits every
metric BENCHMARK.json names with its unit, that each workload exercises
the layers it was chosen for and bypasses the rest (zero calls), and that
the benchmark refuses to run without the foagen sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".perfbench_work" / "selftest"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def calls(metrics: dict, prefix: str) -> dict:
    return {k: v["value"] for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls")}


class Workloads(unittest.TestCase):
    traced: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.traced = {w["name"]: result(w["name"], 1) for w in BENCH["workloads"]}

    def test_end_to_end_metrics_emitted_with_units(self):
        want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for workload in self.traced:
            with self.subTest(workload=workload):
                out = result(workload, 0)
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(v["value"] > 0 for v in out["metrics"].values()))

    def test_per_layer_metrics_emitted_with_units(self):
        want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload, out in self.traced.items():
            with self.subTest(workload=workload):
                self.assertTrue(out["correct"])
                self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, want)

    def test_dataset_bypasses_flow(self):
        m = self.traced["dataset"]["metrics"]
        self.assertTrue(calls(m, "flow."))
        self.assertEqual(set(calls(m, "flow.").values()), {0})
        for name in ("audio_io.read_wav", "foa.spatialize_mono", "metrics.eval_doa_batch",
                     "panorama.erp_to_perspective", "panorama.read_frame", "cleaning.run_pipeline"):
            self.assertGreater(m[f"{name}.calls"]["value"], 0, name)

    def test_mixture_bypasses_masking_upsampling_and_guidance(self):
        m = self.traced["mixture"]["metrics"]
        for name in ("flow.masking.make_mask", "conditioning.upsample_features",
                     "flow.sampling.cfg_velocity"):
            self.assertEqual(m[f"{name}.calls"]["value"], 0, name)
        self.assertGreater(m["flow.training.cfm_loss.calls"]["value"], 0)
        self.assertGreater(m["flow.network.forward.calls"]["value"], 0)

    def test_infill_exercises_masking_upsampling_and_guidance(self):
        m = self.traced["infill"]["metrics"]
        for name in ("flow.masking.make_mask", "conditioning.upsample_features",
                     "flow.sampling.cfg_velocity", "flow.network.save_model", "flow.network.load_model"):
            self.assertGreater(m[f"{name}.calls"]["value"], 0, name)

    def test_flow_workloads_bypass_media_layers(self):
        for workload in ("mixture", "infill"):
            m = self.traced[workload]["metrics"]
            media = {**calls(m, "audio_io."), **calls(m, "panorama."), **calls(m, "cleaning.")}
            # fm-sample --out writes its samples through audio_io.write_matrix.
            media.pop("audio_io.write_matrix.calls")
            with self.subTest(workload=workload):
                self.assertEqual(set(media.values()), {0})

    def test_dataset_counts_the_nan_clip_call_as_failed(self):
        out = self.traced["dataset"]
        self.assertTrue(out["correct"])
        self.assertGreater(out["failed"], 0)
        self.assertLess(out["failed"], out["attempted"])
        m = out["metrics"]
        # 33 frames at --frame-interval 8: 5 compared per clip; a clip with a
        # bad frame decodes some frames and compares none.
        self.assertTrue(0.12 < m["cleaning.frame_use_ratio"]["value"] <= 5 / 33)


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", WORK)
            shutil.copytree(ROOT / "perfbench", WORK / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("mixture", 0, cwd=WORK)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

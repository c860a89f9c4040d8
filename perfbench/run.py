"""capaug's benchmark: both pipelines, end to end and layer by layer.

Usage (from the checkout root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: augment_mock, augment_http, eval (see
BENCHMARK.json and perfbench/README.md for why each exists). A run sets up
the workload, then repeats full pipeline calls ("passes") into a fresh
out-dir for S seconds, checks every pass's outputs, prints a readable summary
and, as the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer ones from the traced passes plus the tracing overhead, and the spans
of the last traced pass are written to ``.bench_out/``. A run whose outputs
fail a check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import checks
import reference
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
# Relative to ROOT, the working directory of a run (see workloads.EXTERNAL_COMMAND).
WORK = Path(".bench_work")
OUT = Path(".bench_out")
DEFAULT_SEED = 0
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60.0


def _spawn(script: str, *argv: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, f"perfbench/{script}", *argv],
                            stdout=subprocess.PIPE, text=True)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def measure_setup_s(workload: str, seed: int) -> float:
    """Median spawn-to-ready time of fresh interpreters running the set-up probe."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = _spawn("setup_probe.py", "--workload", workload, "--seed", str(seed),
                      "--work", str(WORK))
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            _stop(proc)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


class StubServer:
    """The loopback completion server, in its own process."""

    def __init__(self, seed: int, delay_ms: float, refuse_share: float):
        self.proc = _spawn("stub_server.py", "--seed", str(seed), "--delay-ms",
                           str(delay_ms), "--refuse-share", str(refuse_share))
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            _stop(self.proc)
            raise RuntimeError("stub server did not start")
        self.base = f"http://127.0.0.1:{port}"

    def refused(self) -> int:
        with urllib.request.urlopen(f"{self.base}/stats", timeout=CHILD_TIMEOUT_S) as resp:
            return json.loads(resp.read())["refused"]

    def close(self) -> None:
        _stop(self.proc)


def run(args, spec: dict) -> int:
    import capaug
    if Path(capaug.__file__).resolve().parent != (SRC / "capaug").resolve():
        raise RuntimeError(f"imported capaug from {capaug.__file__}, not from {SRC}")

    workload, seed = args.workload, args.seed
    trace = args.trace == 1
    input_path = wl.write_inputs(workload, seed, WORK)
    setup_s = None if trace else measure_setup_s(workload, seed)

    stub = None
    if workload == "augment_http":
        stub = StubServer(seed, wl.STUB_DELAY_MS, wl.STUB_REFUSE_SHARE)
    try:
        config = wl.build_config(workload, seed, WORK, input_path,
                                 f"{stub.base}/complete" if stub else None)
        complete_fn = None if config.separators else wl.build_backend(config)
        out_dir = Path(config.out_dir)

        passes, layer_passes, first_digests = [], [], None
        complete_s: list[float] = []  # llm.complete span durations, all traced passes
        reference_s = [reference.reference_s()]  # before every pass and after the last
        gateway_failures = refused_total = 0
        tracer = None
        started = time.perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            refused_before = stub.refused() if stub else 0
            gc.collect()
            if traced:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    result = wl.run_pass(workload, seed, config,
                                         tracer.wrap_complete(complete_fn)
                                         if complete_fn else None)
                finally:
                    tracer.uninstall()
            else:
                result = wl.run_pass(workload, seed, config, complete_fn)
            refused = (stub.refused() if stub else 0) - refused_before
            refused_total += refused
            totals = None
            if workload.startswith("augment"):
                totals = result.output[1].totals()
                gateway_failures += totals["gateway_failures"]
            else:
                items, evaluation = result.output
                checks.check_evaluation(items, evaluation, out_dir)
            result.output = None
            if traced:
                layer_passes.append(tracing.layer_metrics(tracer, result.clips, totals))
                complete_s.extend(tracer.durations("llm.complete"))
            passes.append((result, traced, refused))

            digests = checks.output_digests(out_dir)
            first_digests = first_digests or digests
            checks.require(digests == first_digests,
                           "outputs differ between passes of the same seed")

            elapsed = time.perf_counter() - started
            typical = statistics.median(r.wall_s for r, _, _ in passes)
            reference_s.append(reference.reference_s())
            if elapsed + typical > args.seconds and (not trace or layer_passes):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if workload.startswith("augment"):
            mock_captions = None
            if stub:
                # The stub answers from mock_complete, so every clip it did not
                # refuse must get exactly the mock backend's captions.
                mock = wl.build_config("augment_mock", seed, WORK, input_path)
                mock.out_dir = None
                manifest, _ = capaug.harness.run_augmentation(mock, resume=False)
                mock_captions = {e.clip_id: e.augmented_captions for e in manifest.entries}
            input_doc = json.loads(input_path.read_text(encoding="utf-8"))
            checks.check_augmentation(input_doc, out_dir, passes[-1][2],
                                     mock_captions)
        if seed == DEFAULT_SEED:
            checks.check_recorded_digests(workload, first_digests)
    finally:
        if stub:
            stub.close()

    attempted = sum(r.clips for r, _, _ in passes)
    untraced = [r.clips / r.wall_s for r, t, _ in passes if not t]
    host_slowdown = statistics.fmean(reference_s) / reference.REFERENCE_S
    lines = [f"{workload} seed {seed}: {len(passes)} passes of {passes[0][0].clips} clips",
             "  untraced passes, clips/s: " + " ".join(f"{v:.4g}" for v in untraced),
             f"  {'clips_per_s':<40} {statistics.median(untraced):.6g} clips/s",
             f"  {'host_slowdown':<40} {host_slowdown:.4g} ratio"]
    if trace:
        metrics = tracing.median_metrics(layer_passes)
        metrics["llm.complete.p50_ms"] = tracing.percentile_ms(complete_s, 50)
        metrics["llm.complete.p99_ms"] = tracing.percentile_ms(complete_s, 99)
        traced_cps = statistics.median(r.clips / r.wall_s for r, t, _ in passes if t)
        metrics["trace.clips_per_s.untraced"] = statistics.median(untraced)
        metrics["trace.clips_per_s.traced"] = traced_cps
        metrics["trace.overhead_ratio"] = statistics.median(untraced) / traced_cps
        spans_path = OUT / f"spans_{workload}_seed{seed}.jsonl"
        OUT.mkdir(exist_ok=True)
        tracer.write(spans_path)
        lines.append(f"  spans of the last traced pass: {spans_path}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {"setup_s": setup_s,
                   "clips_per_s_adjusted": statistics.median(untraced) * host_slowdown,
                   "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if sorted(metrics) != sorted(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           f"{BENCHMARK_JSON.name}")
    for name in units:
        lines.append(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    lines.append(f"  {'failed_ratio':<40} {gateway_failures / attempted:.6g} ratio "
                 f"({gateway_failures} of {attempted} clips failed at the gateway, "
                 f"{refused_total} refused by the stub by design)")
    print("\n".join(lines))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "capaug" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"perfbench: no capaug sources under {SRC}; run from a capaug checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    # Temp dirs of the external separator stay inside the checkout, and
    # requests to the loopback stub never go through a configured proxy.
    os.environ["TMPDIR"] = str((WORK / "tmp").resolve())
    tempfile.tempdir = None
    no_proxy = [os.environ.get("NO_PROXY"), "127.0.0.1"]
    os.environ["NO_PROXY"] = ",".join(filter(None, no_proxy))
    try:
        return run(args, spec)
    except checks.CheckError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

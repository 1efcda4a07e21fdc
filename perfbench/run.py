"""tunnelkit benchmark: one caller, closed loop, one workload per process.

    python3 perfbench/run.py --workload peak-train --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout. ``--trace 0`` measures the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` wraps the package layers (see
``tracer.py``) and reports the per-layer metrics. Every output of every pass
is checked (see ``scenarios.py``). The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; lines before
it print every metric by name and unit, and a run record with the machine
description is written under ``perfbench/out/``.

``--workload all`` runs the three benchmark workloads, each in its own
process, untraced and traced. ``--workload opaque`` runs the opaque-barrier
scenario, which fails today and is kept out of the benchmark workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCH_WORKLOADS = ("peak-train", "figure-cli", "scans")
ALL_WORKLOADS = BENCH_WORKLOADS + ("opaque",)
SETUP_PROBES = 7
# complex128 kernel entries exp(-i E t), materialised once each
KERNEL_BYTES_PER_ENTRY = 16


def import_package():
    """Import tunnelkit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tunnelkit

    if not Path(tunnelkit.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tunnelkit imported from {tunnelkit.__file__}, not {src}")
    return tunnelkit


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int):
    """Import numpy and tunnelkit, build the inputs, load the references."""
    import_package()
    import scenarios

    return scenarios.build(workload, seed, OUT / f"work-{os.getpid()}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Interpreter start to ready, in fresh processes, SETUP_PROBES times."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Op attempts and failures across all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op}: {message}")
        print(f"FAILED {op}: {message}", file=sys.stderr)


def run_pass(wl, tally: Tally, recorder=None) -> dict:
    """Run every op once (timed), then check every output (untimed)."""
    import scenarios

    wl.clear_outputs()
    state: dict = {}
    outputs = {}
    op_s = {}
    if recorder is not None:
        recorder.clear()
        recorder.install()
    try:
        for op in wl.ops:
            tally.attempted += 1
            start = perf_counter()
            try:
                if recorder is not None:
                    with recorder.span(f"op.{op.name}", "op"):
                        outputs[op.name] = op.run(state)
                else:
                    outputs[op.name] = op.run(state)
            except Exception:  # an op that raises is a failed op, never a crash
                outputs[op.name] = traceback.format_exc(limit=3)
            op_s[op.name] = perf_counter() - start
    finally:
        if recorder is not None:
            recorder.uninstall()

    counters = {}
    for op in wl.ops:
        out = outputs[op.name]
        if isinstance(out, str):
            tally.fail(op.name, out.strip().splitlines()[-1])
            continue
        try:
            c = op.check(out)
            if op.name in wl.refs:
                devs = scenarios.compare_to_reference(op, out, wl.refs[op.name])
                c["max_rel_dev"] = max(devs.values())
                # direct-quadrature densities only; P_model is a closed form
                density = [d for k, d in devs.items() if k in ("P", "P_direct")]
                if density:
                    c["density_rel_dev"] = max(density)
            counters[op.name] = c
        except Exception as exc:  # a failed check is a failed op, never a crash
            tally.fail(op.name, f"{type(exc).__name__}: {exc}")
    return {"wall_s": sum(op_s.values()), "op_s": op_s, "counters": counters,
            "outputs": outputs}


def timed_passes(wl, seconds: float, tally: Tally, recorder=None):
    """Warm up once, then make untraced passes (alternating with traced ones
    when a recorder is given) until `seconds` have passed."""
    import tracer

    run_pass(wl, tally)
    plain, traced = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or not plain or (recorder and not traced):
        plain.append(run_pass(wl, tally))
        if recorder is not None:
            res = run_pass(wl, tally, recorder)
            res["layers"] = tracer.layer_summary(recorder.spans)
            traced.append(res)
    return plain, traced


# ---------------------------------------------------------------------------
# metrics


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(plain, setup_times):
    walls = [p["wall_s"] for p in plain]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(plain, traced, absent, names):
    """Layer metrics: times are medians over traced passes, counters repeat."""
    import tracer

    last = traced[-1]
    layers = last["layers"]
    counters = last["counters"].values()

    def med(fn):
        return median([fn(t["layers"]) for t in traced])

    def total(key):
        return sum(c.get(key, 0) for c in counters)

    m = {f"{layer}.self_s": (med(lambda s: s["self_s"].get(layer, 0.0)), "s")
         for layer in tracer.LAYERS}
    nxt = sum(c.get("panels", 0) * tracer.nodes_per_panel() * c.get("n_times", 0)
              for c in counters)
    wp_self = m["wavepacket.self_s"][0]
    # -1 marks a seed without stored references
    devs = [c["density_rel_dev"] for c in counters if "density_rel_dev" in c]
    m.update({
        "wavepacket.kernel_rate": (nxt / wp_self if wp_self > 0 else 0.0, "1/s"),
        "wavepacket.nodes_x_times": (nxt, "count"),
        "wavepacket.kernel_bytes_computed": (KERNEL_BYTES_PER_ENTRY * nxt, "B"),
        "wavepacket.panels": (total("panels"), "count"),
        "wavepacket.refinement_rounds": (total("refinement_rounds"), "count"),
        "cli.rows_written": (total("rows_written"), "count"),
        "cli.bytes_written": (total("bytes_written"), "B"),
        "wavepacket.max_rel_dev": (max(devs) if devs else -1.0, "ratio"),
        "scattering.calls": (layers["calls"].get("scattering", 0), "count"),
    })
    for key, unit in (("scattering.momenta", "count"), ("scattering.momenta_per_node", "ratio"),
                      ("quadrature.nodes", "count"), ("quadrature.adaptive_calls", "count"),
                      ("chebyshev.builds", "count"), ("chebyshev.accept_ratio", "ratio"),
                      ("analysis.model_samples", "count")):
        m[key] = (layers[key], unit)
    m["cli.write_s"] = (med(lambda s: s["cli.write_s"]), "s")
    for name in names:
        m[f"op.{name}.wall_s"] = (median([p["op_s"][name] for p in plain
                                          if name in p["op_s"]]), "s")
    traced_wall = median([t["wall_s"] for t in traced])
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - median([p["wall_s"] for p in plain]), "s")
    m["trace.spans"] = (layers["spans"], "count")
    m["trace.absent_targets"] = (len(absent), "count")
    return m


# ---------------------------------------------------------------------------
# run record


def git_commit() -> str:
    """HEAD of this checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "benchmark_threads": "one caller; tunnelkit CLI --threads 1; BLAS at its default",
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def write_record(args, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    return path


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    wl = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        tally = Tally()
        recorder = None
        if args.trace:
            import tracer

            recorder = tracer.Recorder()
            setup_times = []
        else:
            setup_times = measure_setup(args.workload, args.seed)
        plain, traced = timed_passes(wl, args.seconds, tally, recorder)
        if args.trace:
            import scenarios

            names = [n for w in BENCH_WORKLOADS for n in scenarios.OP_NAMES[w]]
            metrics = per_layer(plain, traced, recorder.absent, names)
        else:
            metrics = end_to_end(plain, setup_times)
        record = {
            "args": vars(args), "machine": machine(),
            "closed_loop": "one caller, next op after the previous one completes",
            "passes": {"untraced": len(plain), "traced": len(traced), "warm_up": 1},
            "pass_wall_s": [p["wall_s"] for p in plain],
            "traced_pass_wall_s": [t["wall_s"] for t in traced],
            "setup_s_samples": setup_times,
            "op_counters": (traced or plain)[-1]["counters"],
            "failures": tally.failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        result = {"correct": tally.failed == 0, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": record["metrics"]}
        if recorder is not None:
            record["absent_targets"] = recorder.absent
            record["spans_of_last_traced_pass"] = recorder.spans
        path = write_record(args, record)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    walls = [p["wall_s"] for p in plain]
    q1, q3 = quartiles(walls)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced + {len(traced)} traced (+1 warm-up)")
    print(f"pass wall_s quartiles {q1:.4f} .. {q3:.4f} s over {len(walls)} passes")
    if setup_times:
        print(f"setup_s over {len(setup_times)} fresh processes: "
              + " ".join(f"{t:.4f}" for t in setup_times))
    for op, c in record["op_counters"].items():
        print(f"counters {op}: " + ", ".join(f"{k}={v}" for k, v in sorted(c.items())))
    if recorder is not None and recorder.absent:
        print("absent layer targets: " + ", ".join(recorder.absent))
    ratio = tally.failed / tally.attempted
    print(f"failed_ratio {ratio:.6g} ({tally.failed}/{tally.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each benchmark workload in its own process, untraced then traced."""
    results = {}
    status = 0
    for name in BENCH_WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                status = 1
                continue
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
            status |= not results[f"{name}/trace{trace}"]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

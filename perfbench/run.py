"""The acx benchmark: fresh-process CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/expected.json

Run from the root of a checkout.  Every invocation is ``python -m acx.cli``
in a new process with ``PYTHONPATH=src``, one at a time (a closed loop with
one client), because that is what a user of the CLI pays.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(from perfbench/tracer.py) with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import VARIANTS, WORKLOADS, write_inputs  # noqa: E402

EXPECTED = HERE / "expected.json"
OUT = HERE / "out"
SETUP_RUNS = 9
# stop starting passes once this much of a run has gone, so a run ends
# well inside the 180 s a benchmark run may take
PASS_BUDGET_S = 120.0
INVOCATION_TIMEOUT_S = 150.0
# host-speed sampling (SpeedSampler): one chunk every SAMPLE_EVERY_S, and a
# chunk's CPU time at the reference speed (about its median on a shared 2-vCPU
# Intel Xeon virtual machine, Python 3.11.7)
SAMPLE_EVERY_S = 0.05
CHUNK_REF_S = 0.0025


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    # ACX_MODE_WINDOW would change the cross-check's work and output; the
    # bytecode cache is kept on, as a user has it; a fixed string hash keeps
    # set and dict order, and so the work done, the same from run to run
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACX_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Result:
    argv: list
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    digest: str
    stderr: list


class Spawner:
    """The perfbench/spawn.py process that starts and measures the children."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")],  # -S keeps it small
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.env = child_env()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd, stdout_path, stderr_path):
        request = {
            "argv": cmd, "cwd": str(ROOT), "env": self.env,
            "stdout": str(stdout_path), "stderr": str(stderr_path),
            "timeout": INVOCATION_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the process spawner exited")
        return json.loads(reply)


def invoke(spawner, argv, out_dir, traced_to=None):
    """Run one CLI invocation in a fresh process and measure it."""
    if traced_to is None:
        cmd = [sys.executable, "-m", "acx.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(traced_to), "--", *argv]
    stdout_path = out_dir / "stdout.txt"
    stderr_path = out_dir / "stderr.txt"
    reply = spawner.run(cmd, stdout_path, stderr_path)
    return Result(
        argv=argv,
        wall=reply["wall"],
        cpu=reply["cpu"],
        rss_mb=reply["maxrss_kb"] / 1024.0,
        exit=reply["exit"],
        digest=hashlib.sha256(stdout_path.read_bytes()).hexdigest(),
        stderr=stderr_path.read_text(errors="replace").strip().splitlines()[-1:],
    )


def pin_to_one_cpu():
    """Keep the harness, its threads, the spawner and every child (they
    inherit it) on one CPU, the one SpeedSampler samples."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def speed_chunk():
    """A fixed piece of pure-Python exact arithmetic, about 2.5 ms of CPU.

    It uses only the standard library, so no change to acx changes its cost.
    """
    for rep in range(4):
        acc = Fraction(rep)
        for k in range(1, 90):
            acc += Fraction(k % 7 - 3, k * k + 1)
            acc *= Fraction(k + 1, k + 2)
    return acc


class SpeedSampler:
    """Samples the speed of the CPU the invocations run on, while they run.

    The host is shared, and its speed drifts by tens of per cent over seconds
    to minutes, in CPU time as much as in wall time, so two runs of the same
    code minutes apart differ by that much.  A thread on the invocations'
    CPU runs speed_chunk() every SAMPLE_EVERY_S and records the chunk's own
    CPU time, which grows as the host slows, whoever else runs.  A pass's
    times times CHUNK_REF_S / (mean chunk CPU time during the pass) are its
    times at the reference speed: the drift cancels, while a change to acx
    leaves the chunks alone.  The chunks take about 5% of the CPU.
    """

    def __init__(self):
        self.samples = []  # (start, CPU seconds of one chunk)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.is_set():
            start = time.perf_counter()
            cpu0 = time.thread_time()
            speed_chunk()
            self.samples.append((start, time.thread_time() - cpu0))
            self._stop.wait(SAMPLE_EVERY_S)

    def factor(self, start, end):
        """The host's speed between `start` and `end` (perf_counter times)
        relative to the reference: CHUNK_REF_S / mean chunk CPU time."""
        cpu = [c for t, c in list(self.samples) if start <= t <= end]
        return CHUNK_REF_S / statistics.fmean(cpu)


def run_pass(spawner, corpus, out_dir, trace_dir=None):
    results = []
    for idx, argv in enumerate(corpus):
        traced_to = None if trace_dir is None else trace_dir / f"trace-{idx:02d}.json"
        results.append(invoke(spawner, argv, out_dir, traced_to))
    return results


def mismatches(results, expected):
    """Indices of invocations whose exit code or stdout digest differ."""
    bad = []
    for idx, res in enumerate(results):
        want = expected[idx] if idx < len(expected) else None
        if want is None or [res.exit, res.digest] != want:
            bad.append(idx)
    return bad


def measure_setup(spawner, speed):
    """Median wall time of a fresh `acx --version` (interpreter, import,
    parser), raw and at the reference host speed."""
    out_dir = OUT / "setup"
    out_dir.mkdir(parents=True, exist_ok=True)
    invoke(spawner, ["--version"], out_dir)  # fills the bytecode cache
    start = time.perf_counter()
    times = []
    for _ in range(SETUP_RUNS):
        res = invoke(spawner, ["--version"], out_dir)
        if res.exit != 0:
            raise BenchError(f"acx --version exited {res.exit}: {res.stderr}")
        times.append(res.wall)
    raw = statistics.median(times)
    return raw, raw * speed.factor(start, time.perf_counter())


def validate_inputs(paths):
    """Every generated model file must load through the program's own loader
    (in a child process, like every other use of the program here)."""
    if not paths:
        return
    check = (
        "import sys\n"
        "from acx.models import load_model_file\n"
        "for path in sys.argv[1:]:\n"
        "    load_model_file(path)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check, *map(str, paths)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"generated models do not load: {proc.stderr.strip()}")


def src_lines():
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "acx").glob("*.py"))
    )


def prepare(workload, seed):
    if not (ROOT / "src" / "acx" / "cli.py").is_file():
        raise BenchError(f"no acx sources under {ROOT / 'src'}; run from a checkout")
    variant = seed % VARIANTS
    rel = f"perfbench/out/{workload}"
    corpus, files = write_inputs(workload, variant, OUT / workload, rel)
    validate_inputs(files)
    return variant, corpus


def load_expected(workload, variant):
    try:
        table = json.loads(EXPECTED.read_text())
        return table[workload][str(variant)]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no expected outputs for {workload} variant {variant}: {exc}")


def metric_names(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]], spec


def passes_for(seconds, run_one):
    """Run passes until `seconds` have gone (at least one)."""
    start = time.perf_counter()
    done = []
    while True:
        t0 = time.perf_counter()
        done.append(run_one())
        now = time.perf_counter()
        if now - start >= seconds or (now - start) + (now - t0) > PASS_BUDGET_S:
            return done


# --- per-layer metrics from the traces


def _walk(span, inside=frozenset()):
    yield span, inside
    for child in span["children"]:
        yield from _walk(child, inside | {span["name"]})


def layer_metrics(traces):
    spans_total = {}
    spans_self = {}
    aggs = {}
    for trace in traces:
        for span, inside in _walk(trace["spans"]):
            name = span["name"]
            if name in inside:  # count a re-entered stage once
                continue
            spans_total[name] = spans_total.get(name, 0.0) + span["dur_s"]
            spans_self[name] = spans_self.get(name, 0.0) + span["self_s"]
        for name, values in trace["aggregates"].items():
            acc = aggs.setdefault(name, {})
            for key, value in values.items():
                acc[key] = acc.get(key, 0) + value

    def total(name):
        return spans_total.get(name, 0.0)

    def agg(name, key):
        return aggs.get(name, {}).get(key, 0)

    def frac(num, den):
        return num / den if den else 0.0

    return {
        "lie.jacobi_s": total("lie.jacobi"),
        "lie.j_check_s": total("lie.j_check"),
        "lie.coframe_s": total("lie.coframe"),
        "lie.complex_constants_s": total("lie.complex_constants"),
        "lie.nijenhuis_s": total("lie.nijenhuis"),
        "lie.integrability_s": total("lie.integrability"),
        "lie.bracket_vectors.calls": agg("lie.bracket_vectors", "calls"),
        "lie.bracket_vectors.nonzero_input_frac": frac(
            agg("lie.bracket_vectors", "nonzero_inputs"),
            agg("lie.bracket_vectors", "inputs"),
        ),
        "linalg.eliminate_s": agg("linalg.row_echelon", "time_s"),
        "linalg.eliminations": agg("linalg.row_echelon", "calls"),
        "linalg.cells": agg("linalg.row_echelon", "cells"),
        "linalg.mat_vec_s": agg("linalg.mat_vec", "time_s"),
        "linalg.mat_vec.calls": agg("linalg.mat_vec", "calls"),
        "hodge.harmonic_s": spans_self.get("hodge.harmonic", 0.0),
        "hodge.blocks": agg("hodge.blocks", "blocks"),
        "hodge.matrix_cells": agg("hodge.operator_matrix", "cells"),
        "hodge.star_s": agg("hodge.star", "time_s"),
        "forms.wedge_s": agg("forms.wedge", "time_s"),
        "forms.wedge.calls": agg("forms.wedge", "calls"),
        "bundles.canonical_power_s": total("bundles.canonical_power"),
        "scalars.s": agg("scalars", "time_s"),
        "scalars.symscalar_new": agg("scalars", "symscalar_new"),
        "scalars.symbolic_frac": frac(
            agg("scalars", "symbolic"), agg("scalars", "symscalar_new")
        ),
        "g2.bracket_table_s": total("g2.bracket_table"),
        "g2.membership_s": total("g2.membership"),
        "g2.projection_s": total("g2.projection"),
        "g2.census_s": total("g2.census"),
        "g2.algebra_s": total("g2.algebra"),
        "models.load_s": total("models.load"),
        "torus.s": agg("torus", "time_s"),
        "torus.mode_oracle.modes": agg("torus", "modes"),
        "cli.parse_render_s": spans_self.get("cli.run", 0.0),
    }


# --- the two kinds of run


def run_end_to_end(spawner, corpus, expected, seconds, out_dir):
    with SpeedSampler() as speed:
        setup_raw, setup_ref = measure_setup(spawner, speed)

        def one_pass():
            start = time.perf_counter()
            results = run_pass(spawner, corpus, out_dir)
            return results, speed.factor(start, time.perf_counter())

        timed = passes_for(seconds, one_pass)
    passes = [results for results, _ in timed]
    factors = [factor for _, factor in timed]
    report_failures(passes, expected)
    failed = sum(len(mismatches(p, expected)) for p in passes)
    attempted = sum(len(p) for p in passes)
    wall = [sum(r.wall for r in p) for p in passes]
    cpu = [sum(r.cpu for r in p) for p in passes]
    metrics = {
        "corpus_ref_s": statistics.median(w * f for w, f in zip(wall, factors)),
        "corpus_cpu_ref_s": statistics.median(c * f for c, f in zip(cpu, factors)),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
        "setup_s": setup_ref,
    }
    info = {"failed_frac": (failed / attempted, "ratio"),
            "slowest_invocation_s": (slowest_invocation(passes), "s"),
            "setup_raw_s": (setup_raw, "s"),
            "corpus_s": (statistics.median(wall), "s"),
            "corpus_cpu_s": (statistics.median(cpu), "s"),
            "host_speed": (statistics.median(factors), "ratio")}
    return metrics, attempted, failed, info, len(passes)


def slowest_invocation(passes):
    """Each invocation's median wall time over the passes; the largest."""
    return max(statistics.median(w) for w in zip(*[[r.wall for r in p] for p in passes]))


def run_traced(spawner, corpus, expected, seconds, out_dir):
    trace_dir = out_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    plain, traced, layers = [], [], []

    def one_pair():
        plain.append(run_pass(spawner, corpus, out_dir))
        traced.append(run_pass(spawner, corpus, out_dir, trace_dir))
        traces = [
            json.loads((trace_dir / f"trace-{i:02d}.json").read_text())
            for i in range(len(corpus))
        ]
        layers.append(layer_metrics(traces))

    passes_for(seconds, one_pair)
    report_failures(plain + traced, expected)
    # traced and untraced stdout and exit codes must both equal the recorded
    # ones, and so each other
    failed = sum(
        len(set(mismatches(p, expected)) | set(mismatches(t, expected)))
        for p, t in zip(plain, traced)
    )
    attempted = sum(len(p) for p in plain)
    metrics = {name: statistics.median(lm[name] for lm in layers) for name in layers[0]}
    corpus_plain = statistics.median(sum(r.wall for r in p) for p in plain)
    corpus_traced = statistics.median(sum(r.wall for r in t) for t in traced)
    metrics["trace.overhead_s"] = corpus_traced - corpus_plain
    metrics["slowest_invocation_s"] = slowest_invocation(plain)
    metrics["src_lines"] = src_lines()
    info = {"failed_frac": (failed / attempted, "ratio"),
            "untraced_corpus_s": (corpus_plain, "s"),
            "traced_corpus_s": (corpus_traced, "s")}
    return metrics, attempted, failed, info, len(plain)


def report_failures(passes, expected):
    for p in passes:
        for idx in mismatches(p, expected):
            res = p[idx]
            want = expected[idx] if idx < len(expected) else None
            print(f"MISMATCH #{idx} acx {' '.join(res.argv)}: exit {res.exit}, "
                  f"digest {res.digest[:12]} (want {want}) {res.stderr}")


def run(args, workload):
    names, spec = metric_names(args.trace)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    variant, corpus = prepare(workload, args.seed)
    expected = load_expected(workload, variant)
    out_dir = OUT / workload
    with Spawner() as spawner:
        if args.trace:
            metrics, attempted, failed, info, npasses = run_traced(
                spawner, corpus, expected, args.seconds, out_dir)
        else:
            metrics, attempted, failed, info, npasses = run_end_to_end(
                spawner, corpus, expected, args.seconds, out_dir)
    if sorted(metrics) != sorted(names):
        raise BenchError(
            f"metric names {sorted(metrics)} differ from BENCHMARK.json {sorted(names)}")
    print(f"workload {workload}  seed {args.seed}  variant {variant}  "
          f"invocations/pass {len(corpus)}  passes {npasses}")
    for key, (value, unit) in sorted(info.items()):
        print(f"  {key:40s} {value:.6g} {unit} (not gated)")
    for name in names:
        print(f"  {name:40s} {metrics[name]:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in names
        },
    }


def record():
    """Rewrite expected.json from the current program, every workload and variant."""
    table = {}
    with Spawner() as spawner:
        for workload in WORKLOADS:
            table[workload] = {}
            for variant in range(VARIANTS):
                _, corpus = prepare(workload, variant)
                results = run_pass(spawner, corpus, OUT / workload)
                for res in results:
                    if res.exit not in (0, 1, 2):
                        raise BenchError(f"acx {' '.join(res.argv)} exited {res.exit}")
                table[workload][str(variant)] = [[r.exit, r.digest] for r in results]
                print(f"recorded {workload} variant {variant}: "
                      f"{sum(r.wall for r in results):.2f} s", flush=True)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for workload in workloads:
            print(json.dumps(run(args, workload), sort_keys=True), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

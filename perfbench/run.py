"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cluster-large --seed 1 --seconds 20 --trace 0

Workloads: ``cluster-large``, ``cluster-small``, ``montecarlo`` (see
``perfbench/README.md``). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a run with spans recorded. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report. A fuller record, spans included, is written to
``perfbench/out/``.

Ops run in a single-threaded closed loop: the next op starts when the
previous one has returned and been checked, until ``--seconds`` have
passed. Set-up is timed separately and reported as ``setup_s``: the median of
three fresh-interpreter imports of the package, plus the median of three
rounds of input generation, plus one warm-up op run before the timed loop.
"""

from __future__ import annotations

import os
import sys
import time

# Pinned before numpy loads: one BLAS thread keeps the samplers' timings
# steady, and two stream workers match the machine's two CPUs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "COUPLECLUST_THREADS": "2"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("cli", "data", "graph", "louvain", "coupling", "solvers", "monge", "relational", "_mc")
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("cluster-large", "cluster-small", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy input sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def load_library() -> dict:
    """Import the package from ``src/`` of this checkout; returns its
    modules by short name."""
    if not (SRC / "coupleclust" / "__init__.py").is_file():
        sys.exit(f"perfbench: no coupleclust sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"coupleclust.{name}") for name in MODULES}
    origin = Path(sys.modules["coupleclust"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: coupleclust imported from {origin}, not from {SRC}")
    return mods


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports every module."""
    code = "import importlib\n" + "".join(f"importlib.import_module('coupleclust.{m}')\n" for m in MODULES)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


def environment(mods) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "env": PINNED_ENV,
        "thread_cap": mods["_mc"].thread_cap(),
    }


class Runner:
    """Executes and checks ops, keeping latencies and failures."""

    def __init__(self, workload, null_tracer):
        self.wl = workload
        self.null = null_tracer
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, i, inp, tracer):
        """Timed call of op ``i``; returns ``(seconds, output, error)``."""
        start = time.perf_counter()
        try:
            out, err = self.wl.run(i, inp, tracer), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, exc
        return time.perf_counter() - start, out, err

    def verify(self, i, inp, out, err, tracer) -> None:
        self.attempted += 1
        if err is None:
            try:
                self.wl.check(i, inp, out, tracer)
                return
            except Exception as exc:
                err = exc
        text = "".join(traceback.format_exception_only(type(err), err)).strip()
        self.failures.append(f"op {i}: {text}")
        print(f"perfbench: op {i} failed: {text}", file=sys.stderr)

    def once(self, i) -> float:
        """Untraced op ``i``, checked; returns its latency in seconds."""
        inp = self.wl.prepare(i)
        seconds, out, err = self.execute(i, inp, self.null)
        self.verify(i, inp, out, err, self.null)
        return seconds


def timed_loop(runner, seconds) -> list[float]:
    latencies = []
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        latencies.append(runner.once(i))
        i += 1
    return latencies


def traced_loop(runner, tracer, seconds) -> tuple[list[int], float]:
    """Each op runs once traced and once untraced, traced first on odd ops
    and second on even ones; the op count is even, so each order runs
    equally often.

    Returns the traced op ids and ``trace.overhead``: the traced ops per
    second over the untraced ones on the same ops.
    """
    wl = runner.wl
    traced_s = untraced_s = 0.0
    op_ids: list[int] = []
    start = time.perf_counter()
    while (
        len(op_ids) < wl.count_window
        or len(op_ids) % 2
        or time.perf_counter() - start < seconds
    ):
        i = len(op_ids) + 1
        inp = wl.prepare(i)
        for traced in ((True, False) if i % 2 else (False, True)):
            if traced:
                for owner, attr, name in wl.wrap_targets():
                    tracer.wrap(owner, attr, name)
                tracer.op = i
                try:
                    seconds_t, out, err = runner.execute(i, inp, tracer)
                finally:
                    tracer.op = None
                    tracer.uninstall()
                traced_s += seconds_t
            else:
                seconds_u, _, err_u = runner.execute(i, inp, runner.null)
                untraced_s += seconds_u
        runner.verify(i, inp, out, err or err_u, tracer)
        op_ids.append(i)
    return op_ids, untraced_s / traced_s


def main(argv=None) -> int:
    args = parse_args(argv)
    mods = load_library()
    from perfbench import metrics, stats, workloads
    from perfbench.tracing import NullTracer, Tracer

    env = environment(mods)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](mods, args.seed, workdir, tiny=args.tiny)
        imports, generate = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            start = time.perf_counter()
            wl.setup()
            generate.append(time.perf_counter() - start)
        runner = Runner(wl, NullTracer())
        warmup_s = runner.once(0)
        setup_s = stats.median(imports) + stats.median(generate) + warmup_s

        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env,
                  "setup": {"import_s": imports, "generate_s": generate, "warmup_s": warmup_s}}
        if args.trace:
            tracer = Tracer()
            op_ids, overhead = traced_loop(runner, tracer, args.seconds)
            window = op_ids[: wl.count_window]
            values = metrics.layer_metrics(tracer.spans, wl.counts, window, wl.quality, overhead)
            table = metrics.PER_LAYER
            record.update(traced_ops=len(op_ids), count_window=window,
                          missing_wrap_targets=sorted(tracer.missing), spans=tracer.to_json())
        else:
            latencies = timed_loop(runner, args.seconds)
            tail_ms, tail_pct, n_ops = stats.tail([1e3 * x for x in latencies])
            values = {
                "setup_s": setup_s,
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": 1e3 * stats.median(latencies),
                "op_tail_ms": tail_ms,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            table = metrics.END_TO_END
            record.update(latencies_s=latencies, op_tail={"percentile": tail_pct, "ops": n_ops},
                          quality=metrics.quality_metrics(wl.quality))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()},
    }
    record.update(result=result, failures=runner.failures)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"# op_tail_ms is p{tail_pct:.4g} over {n_ops} ops")
        for name, value in record["quality"].items():
            print(f"# {name} {value:.6g}")
        shortfalls = wl.quality.get("score_ratio_shortfalls", [])
        if shortfalls:
            print(f"# score ratio below 0.95 in {int(sum(shortfalls))} of {len(shortfalls)} comparisons")
    print(f"# fail_ratio {failed / runner.attempted:.6g} ({failed} of {runner.attempted} ops)")
    print(f"# record written to {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())

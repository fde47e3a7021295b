"""Cold-start CLI benchmark for `coulombgas`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--out FILE]

Run from the repository root; the package is used from `src/` (PYTHONPATH),
not installed.  Each command of a workload (see workloads.py) runs as its
own cold `python -m coulombgas.cli` process, one at a time: a closed loop
with a single client.  Every output goes through the correctness gate
(gate.py) and the determinism check; a command that fails either, or exits
with an unexpected code, counts in `failed`.

--trace 0 (end-to-end metrics):
  setup_s      median wall time of SETUP_REPEATS cold `--help` runs, after
               one untimed one (interpreter start, package import, parser
               build)
  wall_s       wall time of one pass over the workload's commands, each
               command counted at its median over the passes
  cpu_s        user+sys CPU time of the children in one pass, likewise
  peak_rss_mb  largest max-RSS of any child
  Passes repeat while another one still ends within --seconds, and at
  least MIN_PASSES run, so every command's stdout is compared across runs.

--trace 1 (per-layer metrics, traced_cli.LAYER_METRICS): pairs of an
  untraced and a traced pass repeat while another pair ends within
  --seconds; the traced passes run each command under traced_cli.py and
  each metric is the median over them.  trace.overhead_s is the traced pass
  time minus the untraced one (both as for wall_s).

`--workload all` runs every workload both ways, prints each metric with its
unit, and with --out writes them, the provenance and the layer map to a
JSON file.  The last stdout line is always one JSON object with the keys
correct, attempted, failed and metrics; fail_frac = failed / attempted.
The run records, but never sets, the thread-count variables the children
inherit.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import gate
import traced_cli
import workloads

SETUP_REPEATS = 5
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 150.0
TRACER = str(Path(__file__).with_name("traced_cli.py"))
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "GOTO_NUM_THREADS", "OMP_DYNAMIC", "OMP_PROC_BIND")
TRACE_PREFIX = "PERFBENCH_TRACE "


class Outcome(NamedTuple):
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list, env: dict) -> Outcome:
    """Run one child to completion; its own rusage comes from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + COMMAND_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
            if not ready:
                proc.kill()
                break
            for key, _ in ready:
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(proc.returncode, b"".join(chunks[proc.stdout]),
                   b"".join(chunks[proc.stderr]), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def provenance(env: dict) -> dict:
    probe = ("import json, platform, importlib.metadata as md, "
             "mpmath.libmp.backend as b; print(json.dumps({"
             "'python': platform.python_version(), "
             "'numpy': md.version('numpy'), 'scipy': md.version('scipy'), "
             "'mpmath': md.version('mpmath'), 'mpmath_backend': b.BACKEND}))")
    out = spawn([sys.executable, "-c", probe], env)
    if out.rc == 0:
        info = json.loads(out.stdout)
    else:
        info = {"probe_error": out.stderr.decode()}
    info["nproc"] = os.cpu_count()
    info["cpus_usable"] = len(os.sched_getaffinity(0))
    info["thread_env"] = {name: env.get(name) for name in THREAD_VARIABLES}
    return info


class BenchRun:
    """One benchmark run: its commands, checks and failure counts."""

    def __init__(self, workload: str, seed: int):
        self.commands = workloads.commands(workload, seed)
        self.reference = None
        if seed == workloads.DEFAULT_SEED:
            self.reference = gate.load_reference()["commands"]
        self.env = child_env()
        self.determinism = gate.Determinism()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.absent: set = set()

    def _record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"command": label, "problems": problems[:3]})

    def setup_once(self) -> float:
        out = spawn([sys.executable, "-m", "coulombgas.cli", "--help"], self.env)
        ok = out.rc == 0 and out.stdout.startswith(b"usage:")
        self._record("--help", [] if ok else [f"--help exit {out.rc}"])
        return out.wall_s

    def run_pass(self, traced: bool) -> dict:
        """Each command once, in order; per-command wall and CPU times."""
        walls, cpus, rss, layers = [], [], [], []
        start = time.perf_counter()
        for cmd in self.commands:
            prefix = [TRACER] if traced else ["-m", "coulombgas.cli"]
            out = spawn([sys.executable, *prefix, *cmd.argv], self.env)
            ref = self.reference.get(cmd.id) if self.reference else None
            problems = gate.check(cmd, out.rc, out.stdout, ref)
            problems += self.determinism.check(cmd, out.stdout)
            if traced:
                trace = _trace_line(out.stderr)
                if trace is None:
                    problems.append("traced run printed no trace line")
                else:
                    layers.append(trace["metrics"])
                    self.absent.update(trace["absent"])
            self._record(cmd.id, problems)
            walls.append(out.wall_s)
            cpus.append(out.cpu_s)
            rss.append(out.maxrss_kb)
        return {"wall_s": walls, "cpu_s": cpus,
                "peak_rss_mb": max(rss) / 1024.0, "layers": layers,
                "elapsed_s": time.perf_counter() - start}


def _sum_of_medians(passes: list, key: str) -> float:
    """A pass's time with each command at its median over the passes.

    Noise on a shared machine comes in bursts that hit a few consecutive
    commands; the per-command median drops them where a pass total cannot.
    """
    return sum(statistics.median(times)
               for times in zip(*(p[key] for p in passes)))


def _another_fits(durations: list, start: float, seconds: float) -> bool:
    """Whether one more round, of the median duration so far, ends in time."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def _trace_line(stderr: bytes):
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return None


def _pass_layers(per_command: list) -> dict:
    """One traced pass's per-layer figures from its commands' figures."""
    out = {}
    for name in per_command[0] if per_command else ():
        values = [m[name] for m in per_command]
        if name == "cli.import_s":
            out[name] = statistics.median(values)
        elif name in ("cli.scipy_loaded", "cli.modules_loaded"):
            out[name] = max(values)
        else:
            out[name] = sum(values)
    return out


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    bench = BenchRun(workload, seed)
    start = time.perf_counter()
    detail: dict = {"workload": workload, "seed": seed, "trace": trace}
    if trace == 0:
        bench.setup_once()  # untimed: fills the page cache, as users have it
        setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
        passes = []
        loop_start = time.perf_counter()
        while (len(passes) < MIN_PASSES or _another_fits(
                [p["elapsed_s"] for p in passes], loop_start, seconds)):
            passes.append(bench.run_pass(traced=False))
        metrics = {
            "wall_s": _sum_of_medians(passes, "wall_s"),
            "cpu_s": _sum_of_medians(passes, "cpu_s"),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "setup_s": statistics.median(setups),
        }
        detail["setup_runs_s"] = setups
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    else:
        plain, traced = [], []
        while not plain or _another_fits(
                [a["elapsed_s"] + b["elapsed_s"] for a, b in zip(plain, traced)],
                start, seconds):
            plain.append(bench.run_pass(traced=False))
            traced.append(bench.run_pass(traced=True))
        passes = plain + traced
        layer_passes = [_pass_layers(p["layers"]) for p in traced]
        metrics = {name: statistics.median(p.get(name, 0) for p in layer_passes)
                   for name in traced_cli.LAYER_METRICS
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (_sum_of_medians(traced, "wall_s")
                                       - _sum_of_medians(plain, "wall_s"))
        detail["absent"] = sorted(bench.absent)
        units = {name: spec[0] for name, spec in traced_cli.LAYER_METRICS.items()}
    detail.update(
        passes=len(passes),
        pass_wall_s=[sum(p["wall_s"]) for p in passes],
        pass_cpu_s=[sum(p["cpu_s"]) for p in passes],
        fail_frac=bench.failed / bench.attempted,
        problems=bench.problems[:10],
        run_s=time.perf_counter() - start)
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "detail": detail}


def _result_line(result: dict) -> str:
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def run_all(seed: int, seconds: float, out_path: str | None, info: dict) -> dict:
    results = {}
    for name in workloads.NAMES:
        for trace in (0, 1):
            result = measure(name, seed, seconds, trace)
            results[f"{name}/trace{trace}"] = result
            for metric, value in result["metrics"].items():
                print(f"{name:15s} {metric:38s} {value['value']:14.6g} "
                      f"{value['unit']}", flush=True)
            print(f"{name:15s} {'fail_frac':38s} "
                  f"{result['detail']['fail_frac']:14.6g} "
                  f"({result['failed']}/{result['attempted']})", flush=True)
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key.split('/')[0]}.{metric}": value
                    for key, r in results.items()
                    for metric, value in r["metrics"].items()},
    }
    if out_path:
        layer_map = {name: {"unit": u, "better": b, "moves": moves}
                     for name, (u, b, moves) in traced_cli.LAYER_METRICS.items()}
        with open(out_path, "w") as handle:
            json.dump({"provenance": info, "seed": seed, "seconds": seconds,
                       "why": workloads.WHY, "layer_map": layer_map,
                       "results": results}, handle, indent=2)
            handle.write("\n")
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="with --workload all: write all results here")
    args = parser.parse_args()
    if not Path("src/coulombgas/cli.py").is_file():
        print("perfbench: src/coulombgas/cli.py not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    info = provenance(child_env())
    print(json.dumps({"provenance": info}), flush=True)
    if args.workload == "all":
        print(_result_line(run_all(args.seed, args.seconds, args.out, info)))
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in result["detail"]["problems"]:
        print(f"perfbench: FAILED {json.dumps(problem)}", file=sys.stderr)
    print(json.dumps({"detail": result["detail"]}))
    print(_result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

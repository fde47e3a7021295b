"""Run one `coulombgas` command in-process, timing each layer from outside.

    PYTHONPATH=src python3 perfbench/traced_cli.py <coulombgas arguments...>

This script imports `coulombgas.cli` (timing the import), replaces the public
functions listed in TARGETS with span-recording wrappers -- in every
`coulombgas` module that holds the same function object, so for example
`ldp.lue_gap_probability` is traced as well as `exactfiniten`'s -- and then
calls `coulombgas.cli.run(argv)`.  The command's stdout is left untouched;
the last line of stderr is `PERFBENCH_TRACE {json}` with this process's
per-layer figures.  A listed function that no longer exists is reported in
`absent`, not as an error.

Spans (name, start, end, parent) stay in memory; a span's self time is its
duration minus that of its direct children.  The program is run without
`--jobs`, so every span is on the one Python thread.

run.py and gate.py import this module for its tables (LAYER_METRICS,
REPORT_CHECKS); importing it has no side effects.
"""
import functools  # loaded at interpreter start-up already
import sys
import time

# (module, attribute) of each traced function.  "cmd_*" stands for every
# cmd_* function of the module; "Class.method" wraps a class attribute.
TARGETS = (
    ("cli", "cmd_*"), ("cli", "render"),
    ("exactfiniten", "exact_logZ"), ("exactfiniten", "exact_op"),
    ("exactfiniten", "moment_table"), ("exactfiniten", "lue_gap_probability"),
    ("painleve", "tw_cdf"), ("painleve", "tw_survival"),
    ("painleve", "q2_tail_integral"), ("painleve", "hastings_mcleod"),
    ("ldp", "phi"), ("ldp", "psi"), ("ldp", "kc_action"),
    ("geometry", "droplet_boundary"),
    ("opasymp", "GEvaluator.build"), ("opasymp", "p_asymp"),
    ("freeenergy", "expansion"),
    ("report", "run_checks"),
)
# Names wrapped only in the module listed, not in every module holding them
# (freeenergy imports the same scipy `quad`).
LOCAL_ONLY = {("opasymp", "quad")}

TAIL = ("painleve.tw_cdf", "painleve.tw_survival", "painleve.q2_tail_integral")
LDP_EVAL = ("ldp.phi", "ldp.psi", "ldp.kc_action")

# metric -> spans whose outermost occurrences are summed (time) or counted
TIME_METRICS = {
    "cli.render_s": ("cli.render",),
    "exactfiniten.exact_logZ_s": ("exactfiniten.exact_logZ",),
    "exactfiniten.exact_op_s": ("exactfiniten.exact_op",),
    "exactfiniten.moment_table_s": ("exactfiniten.moment_table",),
    "exactfiniten.lue_gap_probability_s": ("exactfiniten.lue_gap_probability",),
    "painleve.tail_s": TAIL,
    "painleve.hastings_mcleod_s": ("painleve.hastings_mcleod",),
    "ldp.eval_s": LDP_EVAL,
    "geometry.droplet_boundary_s": ("geometry.droplet_boundary",),
    "opasymp.build_s": ("opasymp.GEvaluator.build",),
    "opasymp.p_asymp_s": ("opasymp.p_asymp",),
    "freeenergy.expansion_s": ("freeenergy.expansion",),
}
COUNT_METRICS = {
    "painleve.tail_evals": TAIL,
    "ldp.evals": LDP_EVAL,
    "opasymp.quad_calls": ("opasymp.quad",),
}
# the twelve `report` checks, in registry order
REPORT_CHECKS = ("duality", "expansion_post", "expansion_pre", "kc_identity",
                 "third_order", "ldp_constants", "tw_tails", "op_asymptotics",
                 "residue_r11", "zw_constant", "derivative_forms",
                 "energy_continuity")

_QUICK = "wall_s on quick-commands"
_GRID = "wall_s on grid-tables"
_EXACT = "wall_s and cpu_s on exact-sweep"
_SETUP = "setup_s on every workload; " + _QUICK
# Every per-layer metric: unit, better, and the end-to-end metric and
# workload it should move.  Values are per pass of the workload: times and
# counts summed over its commands, cli.import_s the median per process, and
# cli.scipy_loaded / cli.modules_loaded the largest.
LAYER_METRICS = {
    "cli.import_s": ("s", "lower", _SETUP),
    "cli.scipy_loaded": ("count", "lower", _SETUP),
    "cli.modules_loaded": ("count", "lower", _SETUP),
    "cli.render_s": ("s", "lower", _GRID),
    "cli.render_bytes": ("bytes", "lower", _GRID),
    "cli.self_s": ("s", "lower", _GRID),
    "exactfiniten.exact_logZ_s": ("s", "lower", _EXACT),
    "exactfiniten.exact_op_s": ("s", "lower", _EXACT),
    "exactfiniten.moment_table_s": ("s", "lower", _EXACT),
    "exactfiniten.moment_builds": ("count", "lower", _EXACT),
    "exactfiniten.lue_gap_probability_s": ("s", "lower", _QUICK),
    "painleve.tail_s": ("s", "lower", _GRID),
    "painleve.tail_evals": ("count", "lower", _GRID),
    "painleve.hastings_mcleod_s": ("s", "lower", _QUICK),
    "ldp.eval_s": ("s", "lower", _GRID),
    "ldp.evals": ("count", "lower", _GRID),
    "geometry.droplet_boundary_s": ("s", "lower", _GRID),
    "opasymp.build_s": ("s", "lower", "wall_s on exact-sweep"),
    "opasymp.p_asymp_s": ("s", "lower", "wall_s on exact-sweep"),
    "opasymp.quad_calls": ("count", "lower", "wall_s on exact-sweep"),
    "freeenergy.expansion_s": ("s", "lower", _QUICK),
    **{f"report.check.{key}_s": ("s", "lower", _QUICK) for key in REPORT_CHECKS},
    "trace.overhead_s": ("s", "lower",
                         "none: traced minus untraced pass wall time"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.render_bytes = 0
        self.check_seconds = {}

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _on_render(self, text):
        self.render_bytes += len(text.encode())

    def _on_checks(self, results):
        for res in results:
            self.check_seconds[res.key] = res.elapsed_seconds

    def patch(self, package: dict) -> list:
        """Wrap every target; return the names that do not exist."""
        absent = []
        hooks = {("cli", "render"): self._on_render,
                 ("report", "run_checks"): self._on_checks}
        targets = [(m, a, False) for m, a in TARGETS]
        targets += [(m, a, True) for m, a in LOCAL_ONLY]
        for module_name, attr, local in targets:
            module = package.get(f"coulombgas.{module_name}")
            if module is None:
                absent.append(f"{module_name}.{attr}")
                continue
            if attr == "cmd_*":
                names = [n for n in vars(module) if n.startswith("cmd_")]
            else:
                names = [attr]
            for name in names:
                if not self._patch_one(package, module, module_name, name,
                                       local, hooks.get((module_name, attr))):
                    absent.append(f"{module_name}.{name}")
        return absent

    def _patch_one(self, package, module, module_name, name, local, hook):
        owner_name, _, leaf = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not hasattr(owner, leaf):
            return False
        span = f"{module_name}.{name}"
        if owner_name:  # a method: rewrap its descriptor on the class
            raw = vars(owner)[leaf]
            wrapped = isinstance(raw, (classmethod, staticmethod))
            kind = type(raw) if wrapped else None
            fn = raw.__func__ if kind else raw
            traced = self.wrap(span, fn, hook)
            setattr(owner, leaf, kind(traced) if kind else traced)
            return True
        original = getattr(owner, leaf)
        traced = self.wrap(span, original, hook)
        holders = [module] if local else package.values()
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
        return True

    def _inside(self, index: int, names) -> bool:
        """Whether a span of one of `names` encloses span `index`."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self) -> dict:
        time_of, count_of = {}, {}
        for table, index in ((TIME_METRICS, time_of), (COUNT_METRICS, count_of)):
            for metric, names in table.items():
                for name in names:
                    index.setdefault(name, []).append(metric)
        out = dict.fromkeys(TIME_METRICS, 0.0)
        out.update(dict.fromkeys(COUNT_METRICS, 0))
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
            for metric in count_of.get(name, ()):
                out[metric] += 1
            for metric in time_of.get(name, ()):
                if not self._inside(i, TIME_METRICS[metric]):
                    out[metric] += end - start
        out["cli.self_s"] = sum(
            end - start - child_time[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name.startswith("cli.cmd_"))
        out["cli.render_bytes"] = self.render_bytes
        # a moment vector is assembled by each moment_table call, and by each
        # exact_op call that does not get it from a moment_table inside it
        encloses_table = set()
        for name, _, _, parent in self.spans:
            while name == "exactfiniten.moment_table" and parent >= 0:
                encloses_table.add(parent)
                parent = self.spans[parent][3]
        out["exactfiniten.moment_builds"] = sum(
            1 for i, (name, *_) in enumerate(self.spans)
            if name == "exactfiniten.moment_table"
            or (name == "exactfiniten.exact_op" and i not in encloses_table))
        for key in REPORT_CHECKS:
            out[f"report.check.{key}_s"] = self.check_seconds.get(key, 0.0)
        return out


def main(argv) -> int:
    start = time.perf_counter()
    import coulombgas.cli as cli
    import_s = time.perf_counter() - start
    # counted before anything below imports more
    modules_loaded = len(sys.modules)
    scipy_loaded = int(any(name == "scipy" or name.startswith("scipy.")
                           for name in sys.modules))
    import importlib
    import json

    package = {}
    for module_name, _ in TARGETS:
        # a module the CLI imports lazily must still be patched up front
        name = f"coulombgas.{module_name}"
        try:
            package[name] = importlib.import_module(name)
        except ImportError:
            continue
    package.update((name, module) for name, module in sys.modules.items()
                   if name.startswith("coulombgas.") and module is not None)

    tracer = Tracer()
    absent = tracer.patch(package)
    rc = cli.run(argv)
    sys.stdout.flush()
    summary = {"cli.import_s": import_s, "cli.modules_loaded": modules_loaded,
               "cli.scipy_loaded": scipy_loaded, **tracer.metrics()}
    print("PERFBENCH_TRACE " + json.dumps({"metrics": summary,
                                           "absent": absent,
                                           "spans": len(tracer.spans)}),
          file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

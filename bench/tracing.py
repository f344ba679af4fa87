"""Span tracing of cantorshift's public entry points, from outside the package.

``Tracer.install`` replaces each listed function with a wrapper that records
a span (name, op, parent, start, end, exception) in memory.  A name bound
by ``from .x import name`` lives in several module namespaces, and the
verify suites also sit in a registry dict, so every binding of the original
object inside the package is replaced; methods are replaced on their class.
``uninstall`` puts every original back.

Self time is a span's duration minus the durations of its direct children.
Work counts come from arguments and return values, so they repeat exactly
for a fixed op list.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter


def _first(a, k, name):
    return a[0] if a else k[name]


def _second(a, k, name):
    return a[1] if len(a) > 1 else k[name]


def _evaluate_slots(a, k, _result):
    # Series slots read: the reading-order prefix or the digit prefix,
    # whichever is longer; tails are summed in closed form.
    f, e = _first(a, k, "f"), _second(a, k, "e")
    return (max(f.seq.size, len(e.prefix)),)


def _gk_rows(_a, _k, rows):
    # Rows not sampled by Monte Carlo count as exact, whatever the method.
    return (len(rows), sum(row.method != "mc" for row in rows))


SUITES = (
    "duality",
    "lemma1",
    "compose",
    "schedule",
    "system",
    "integral",
    "continuity",
    "distribution",
    "increment",
    "measure",
)

# (module, attribute path, extra count names, counter(args, kwargs, result))
TARGETS = [
    ("expansions", "expansion_of", ("digits",), lambda a, k, r: (len(r.prefix),)),
    ("expansions", "value_of", (), None),
    ("expansions", "parse_expansion", (), None),
    ("salem", "evaluate", ("digits",), _evaluate_slots),
    ("salem", "distribution_function", (), None),
    ("salem", "residual", (), None),
    ("salem", "chain_value", (), None),
    ("salem", "continuity_at", (), None),
    ("salem", "parse_function_spec", (), None),
    ("shifts", "generalized_shift", (), None),
    ("shifts", "shift_n", (), None),
    ("shifts", "delete_positions", (), None),
    ("shifts", "compose_two", (), None),
    ("shifts", "make_schedule", (), None),
    ("measure", "PiecewiseLinearMap.compose", ("branches",), lambda a, k, r: (len(r.branches),)),
    ("measure", "plm_single_deletion", (), None),
    ("measure", "plm_iter_shift", (), None),
    ("measure", "plm_generalized_chain", (), None),
    ("measure", "sublevel_set", ("branches",), lambda a, k, r: (len(_first(a, k, "plm").branches),)),
    ("measure", "comparison_measure", (), None),
    ("measure", "PiecewiseLinearMap.subtract", (), None),
    ("measure", "monte_carlo_measure", ("samples", "indeterminate"), lambda a, k, r: (r.samples, r.indeterminate)),
    ("measure", "gk_scan", ("rows", "exact_rows"), _gk_rows),
    ("cli", "cmd_eval", (), None),
    ("cli", "cmd_curve", (), None),
    ("cli", "cmd_measure", (), None),
    ("cli", "cmd_verify", (), None),
] + [("verify", f"suite_{name}", (), None) for name in SUITES]

CLI_COMMANDS = ("eval", "curve", "measure", "verify")
_BUDGET_ERROR = "BudgetExceededError"
_EXACT_BUILDERS = ("measure.plm_iter_shift", "measure.plm_generalized_chain")


def _unit(stat: str) -> str:
    if stat.endswith("_s"):
        return "s"
    if stat.endswith(("_ratio", "_frac")):
        return "ratio"
    if stat == "bytes_out":
        return "bytes"
    return "count"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced pass reports, with its unit."""
    names = []
    for module, attr, counts, _ in TARGETS:
        names += [f"{module}.{attr}.{stat}" for stat in ("calls", "self_s", *counts)]
    names += [
        "measure.PiecewiseLinearMap.compose.wasted_s",
        "measure.monte_carlo_measure.decided_ratio",
        "measure.gk_scan.exact_ratio",
        "measure.gk_scan.budget_errors",
    ]
    names += [f"cli.cmd_{cmd}.bytes_out" for cmd in CLI_COMMANDS]
    names += ["trace.wall_s", "trace.self_s", "trace.outside_s", "trace.overhead_frac"]
    return {name: _unit(name.rsplit(".", 1)[1]) for name in names}


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{module}.{attr}" for module, attr, _, _ in TARGETS]
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, index: int, fn, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*a, **k):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            t0 = perf_counter()
            try:
                result = fn(*a, **k)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                spans[slot] = (index, self.op, parent, t0, t1, type(exc).__name__, ())
                raise
            t1 = perf_counter()
            stack.pop()
            spans[slot] = (index, self.op, parent, t0, t1, None, counter(a, k, result) if counter else ())
            return result

        return functools.update_wrapper(wrapper, fn)

    def _rebind(self, owner, key, old, new, mapping: bool) -> None:
        if mapping:
            owner[key] = new
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            setattr(owner, key, new)
            self._undo.append(lambda: setattr(owner, key, old))

    def install(self, package: str = "cantorshift") -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
        for index, (module, attr, _, counter) in enumerate(TARGETS):
            home = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, original, self._wrap(index, original, counter), mapping=False)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(index, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper, mapping=False)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._rebind(value, dkey, original, wrapper, mapping=True)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def metrics(self, wall_s: float, untraced_wall_s: float, bytes_out: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        ``wall_s`` is the traced pass's summed op latency and
        ``untraced_wall_s`` the same op list's without tracing.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for index, _op, parent, t0, t1, _err, _counts in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(metric_units(), 0)
        count_names = {f"{m}.{a}": counts for m, a, counts, _ in TARGETS}
        root_s = self_total = 0.0
        for slot, (index, _op, parent, t0, t1, err, counts) in enumerate(spans):
            name = self.names[index]
            self_s = (t1 - t0) - child[slot]
            self_total += self_s
            if parent < 0:
                root_s += t1 - t0
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            for stat, value in zip(count_names[name], counts):
                out[f"{name}.{stat}"] += value
            if err == _BUDGET_ERROR:
                if name == "measure.PiecewiseLinearMap.compose":
                    out[f"{name}.wasted_s"] += self_s
                if name in _EXACT_BUILDERS and parent >= 0 and self.names[spans[parent][0]] == "measure.gk_scan":
                    out["measure.gk_scan.budget_errors"] += 1
        mc = "measure.monte_carlo_measure"
        samples = out[f"{mc}.samples"]
        out[f"{mc}.decided_ratio"] = (samples - out[f"{mc}.indeterminate"]) / samples if samples else 0.0
        rows = out["measure.gk_scan.rows"]
        out["measure.gk_scan.exact_ratio"] = out["measure.gk_scan.exact_rows"] / rows if rows else 0.0
        for cmd in CLI_COMMANDS:
            out[f"cli.cmd_{cmd}.bytes_out"] = bytes_out.get(cmd, 0)
        out["trace.wall_s"] = wall_s
        out["trace.self_s"] = self_total
        out["trace.outside_s"] = wall_s - root_s
        out["trace.overhead_frac"] = (wall_s - untraced_wall_s) / untraced_wall_s
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: times in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        rows = [
            [index, op, parent, round(t0 - origin, 7), round(t1 - origin, 7), err]
            for index, op, parent, t0, t1, err, _counts in self.spans
        ]
        fields = ["name", "op", "parent", "start_s", "end_s", "error"]
        path.write_text(json.dumps({"names": self.names, "fields": fields, "spans": rows}, separators=(",", ":")))

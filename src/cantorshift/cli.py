"""Command-line surface: evaluate functions, emit curves, run verification
suites, and drive measure experiments from config files.

Exit codes: 0 success, 1 a verify check failed, 2 usage/parse error, 3 I/O
error, 4 branch budget exceeded without fallback.  All outputs are
deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import measure as me
from . import salem as sm
from . import shifts as sh
from .expansions import parse_expansion, parse_rational, value_of
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _format_value(v) -> str:
    text = f"{float(v):.12f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_eval(args) -> int:
    try:
        f = sm.parse_function_spec(args.spec)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    q = f.weights.q
    try:
        if ":" in args.x:
            e = parse_expansion(args.x)
            if not (e.base.is_constant and e.base.tail_value == q):
                return _fail(f"expansion base must be q{q}", EXIT_USAGE)
            value, cut = sm.evaluate(f, e), None
        else:
            x = parse_rational(args.x)
            if not 0 <= x <= 1:
                return _fail("x must lie in [0, 1]", EXIT_USAGE)
            value, cut = sm.value_at(f, x)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    print(_format_value(value))
    print("exact" if cut is None else f"truncation depth: {cut}", file=sys.stderr)
    return EXIT_OK


def cmd_curve(args) -> int:
    try:
        f = sm.parse_function_spec(args.spec)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    if args.grid < 2:
        return _fail("grid must be >= 2", EXIT_USAGE)
    lines = ["# q-rational grid points are evaluated in the terminating digit form", "x,g"]
    for i in range(args.grid + 1):
        x = Fraction(i, args.grid)
        g, _ = sm.value_at(f, x)
        lines.append(f"{_format_value(x)},{_format_value(g)}")
    try:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        checks = run_suite(args.suite, args)
    except KeyError:
        known = ", ".join(sorted(SUITES) + ["all"])
        return _fail(f"unknown suite {args.suite!r}; known: {known}", EXIT_USAGE)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    failed = 0
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if (detail and not ok) else ""
        print(f"{tag}  {name}{suffix}")
        failed += not ok
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _parse_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

_SHARED_KEYS = {"family", "q", "samples", "seed", "budget", "iter_limit", "fallback", "out"}
# The keys each family reads besides the shared ones.  A key the chosen
# family never reads is an error rather than silently ignored.
_THRESHOLD_KEYS = {"x", "threshold_point", "threshold_iter"}
_FAMILY_KEYS = {
    "itershift": {"n"} | _THRESHOLD_KEYS,
    "genchain": {"indices", "psi", "count"} | _THRESHOLD_KEYS,
    "schedulechain": {"indices", "psi", "count"} | _THRESHOLD_KEYS,
    "compareiter": {"a", "b", "psi", "phi"},
}
_CONFIG_KEYS = _SHARED_KEYS.union(*_FAMILY_KEYS.values())
# key groups that one config may not mix
_EXCLUSIVE = ((("x",), ("threshold_point",)), (("indices",), ("psi",)), (("a", "b"), ("psi", "phi")))


def parse_config(text: str) -> dict:
    """Plain ``key = value`` lines; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    if "family" not in raw or "q" not in raw:
        raise ValueError("config needs at least family= and q=")
    family = raw["family"].lower()
    if family not in _FAMILY_KEYS:
        raise ValueError(f"unknown family {family!r}")
    unread = sorted(raw.keys() - _SHARED_KEYS - _FAMILY_KEYS[family])
    if unread:
        raise ValueError(f"{family} does not read {', '.join(unread)}")
    for left, right in _EXCLUSIVE:
        if raw.keys() & left and raw.keys() & right:
            raise ValueError(f"set either {'/'.join(left)} or {'/'.join(right)}, not both")
    if "threshold_iter" in raw and "threshold_point" not in raw:
        raise ValueError("threshold_iter needs threshold_point")
    cfg: dict = {
        "family": family,
        "q": int(raw["q"]),
        "samples": int(raw.get("samples", "100000")),
        "seed": int(raw.get("seed", "0")),
        "budget": int(raw.get("budget", str(me.DEFAULT_BRANCH_BUDGET))),
        "iter_limit": int(raw.get("iter_limit", str(me.DEFAULT_ITER_LIMIT))),
        "fallback": _BOOL.get(raw.get("fallback", "true").lower()),
        "out": raw.get("out", "measures.csv"),
    }
    if cfg["fallback"] is None:
        raise ValueError("fallback must be true or false")
    if cfg["budget"] < 1:
        raise ValueError("budget must be >= 1")
    if cfg["iter_limit"] < 1:
        raise ValueError("iter_limit must be >= 1")
    if cfg["fallback"] and cfg["samples"] < 1:
        raise ValueError("samples must be >= 1 when fallback is on")
    if "x" in raw:
        cfg["x"] = [parse_rational(tok) for tok in raw["x"].split(",") if tok.strip()]
        if not all(0 <= x <= 1 for x in cfg["x"]):
            raise ValueError("thresholds x must lie in [0, 1]")
    else:
        cfg["x"] = []
    for key in ("n", "count"):
        if key in raw:
            cfg[key] = _parse_range(raw[key])
    for key in ("indices", "psi", "phi"):
        if key in raw:
            cfg[key] = _parse_int_list(raw[key])
    for key in ("a", "b", "threshold_iter"):
        if key in raw:
            cfg[key] = int(raw[key])
    if "threshold_point" in raw:
        cfg["threshold_point"] = parse_expansion(raw["threshold_point"])
    return cfg


def _build_specs(cfg: dict) -> list[me.SetFamilySpec]:
    family = cfg["family"]
    q = cfg["q"]
    if family == "itershift":
        if "n" not in cfg:
            raise ValueError("itershift needs n = a..b")
        return [me.SetFamilySpec.iter_shift(q, n) for n in cfg["n"]]
    if family in ("genchain", "schedulechain"):
        table = cfg.get("indices") or cfg.get("psi")
        if not table:
            raise ValueError(f"{family} needs indices= (or psi=)")
        counts = cfg.get("count", [len(table)])
        if max(counts) > len(table):
            raise ValueError("count exceeds the lookup table length")
        maker = (
            me.SetFamilySpec.gen_chain
            if family == "genchain"
            else lambda q_, idx: me.SetFamilySpec.schedule_chain(q_, table, len(idx))
        )
        return [maker(q, tuple(table[:c])) for c in counts]
    # compareiter, the one family left after parse_config
    if "psi" in cfg and "phi" in cfg:
        psi, phi = cfg["psi"], cfg["phi"]
        if len(psi) != len(phi):
            raise ValueError("psi and phi tables must have equal length")
        return [me.SetFamilySpec.compare_iter(q, a, b) for a, b in zip(psi, phi)]
    if "a" in cfg and "b" in cfg:
        return [me.SetFamilySpec.compare_iter(q, cfg["a"], cfg["b"])]
    raise ValueError("compareiter needs a= and b= (or psi= and phi= tables)")


def _threshold_grid(cfg: dict) -> list[Fraction]:
    if "threshold_point" in cfg:
        point = cfg["threshold_point"]
        iterate = cfg.get("threshold_iter", 0)
        return [value_of(sh.shift_n(point, iterate))]
    if not cfg["x"] and cfg["family"] != "compareiter":
        raise ValueError(f"{cfg['family']} needs x = ... or threshold_point = ...")
    return cfg["x"]


def cmd_measure(args) -> int:
    try:
        with open(args.config, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    try:
        cfg = parse_config(text)
        specs = _build_specs(cfg)
        x_grid = _threshold_grid(cfg)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    if args.budget is not None:
        if args.budget < 1:
            return _fail("budget must be >= 1", EXIT_USAGE)
        cfg["budget"] = args.budget
    if args.seed is not None:
        cfg["seed"] = args.seed
    out_path = args.out or cfg["out"]
    try:
        rows = me.gk_scan(
            specs,
            x_grid,
            budget=cfg["budget"],
            iter_limit=cfg["iter_limit"],
            samples=cfg["samples"],
            seed=cfg["seed"],
            allow_fallback=cfg["fallback"],
            log=lambda msg: print(msg, file=sys.stderr),
        )
    except me.BudgetExceededError as exc:
        return _fail(str(exc), EXIT_BUDGET)
    try:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(me.rows_to_csv(rows))
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    print(f"wrote {len(rows)} rows to {out_path}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorshift",
        description="digit expansions, shift operators, generalized Salem functions, measure experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at a point")
    p_eval.add_argument("spec", help='function spec, e.g. "q=2; p=0.3,0.7; seq=perm(2 1)"')
    p_eval.add_argument("x", help="rational like 1/3 or 0.25, or digit notation like q2:[1]:zeros")
    p_eval.set_defaults(func=cmd_eval)

    p_curve = sub.add_parser("curve", help="write a CSV curve of the function")
    p_curve.add_argument("spec")
    p_curve.add_argument("--grid", type=int, default=256, help="number of grid cells (>= 2)")
    p_curve.add_argument("--out", required=True)
    p_curve.set_defaults(func=cmd_curve)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help="suite name or 'all'")
    p_verify.add_argument("--spec", default=None, help="optional function spec for applicable suites")
    p_verify.set_defaults(func=cmd_verify)

    p_measure = sub.add_parser("measure", help="run a measure experiment from a config file")
    p_measure.add_argument("config")
    p_measure.add_argument("--out", default=None, help="override the config output path")
    p_measure.add_argument("--budget", type=int, default=None)
    p_measure.add_argument("--seed", type=int, default=None)
    p_measure.set_defaults(func=cmd_measure)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

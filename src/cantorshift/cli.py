"""Command-line surface: evaluate functions, emit curves, run verification
suites, and drive measure experiments from config files.

Exit codes: 0 success, 1 a verify check failed, 2 usage/parse error, 3 I/O
error, 4 branch budget exceeded without fallback, or a scan that would draw
too many digits a sample, hold too many rows or take over about a minute.
The commands raise, and ``main`` alone maps the exception to its exit code
and an ``error:`` line.
All outputs are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import measure as me
from . import salem as sm
from . import shifts as sh
from .expansions import _over_str_limit, _read_token, _Record, parse_expansion, parse_rational, quote_token, value_of
from .verify import DEFAULT_FUNCTION, SUITES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_eval(args) -> int:
    f = sm.parse_function_spec(args.spec)
    if ":" in args.x:
        value, cut = sm.evaluate(f, parse_expansion(args.x)), None
    else:
        value, cut = sm.value_at(f, parse_rational(args.x))
    print(sm.format_value(value))
    print("exact" if cut is None else f"truncation depth: {cut}", file=sys.stderr)
    return EXIT_OK


def cmd_curve(args) -> int:
    f = sm.parse_function_spec(args.spec)
    if args.grid < 2:
        raise ValueError("grid must be >= 2")
    with open(args.out, "w", encoding="ascii") as handle:
        handle.write("# q-rational grid points are evaluated in the terminating digit form\nx,g\n")
        for i in range(args.grid + 1):
            x = Fraction(i, args.grid)
            handle.write(f"{sm.format_value(x)},{sm.format_value(sm.value_at(f, x)[0])}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        raise ValueError(f"unknown suite {quote_token(args.suite)}; known: {known}")
    f = sm.parse_function_spec(args.spec) if args.spec else DEFAULT_FUNCTION
    failed = 0
    for suite in SUITES if args.suite == "all" else [args.suite]:
        # each suite is run and printed before the next: one that raises is
        # one FAIL line, and the suites after it still run
        try:
            checks = SUITES[suite](f)
        except Exception as exc:
            checks = [(suite, False, f"{type(exc).__name__}: {exc}")]
        for name, ok, detail in checks:
            tag = "PASS" if ok else "FAIL"
            suffix = f"  [{detail}]" if (detail and not ok) else ""
            print(f"{tag}  {name}{suffix}")
            failed += not ok
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _parse_int(text: str, key: str, lineno: int) -> int:
    return _read_token(int, text.strip(), f"line {lineno}: {key} must be an integer, got {{}}")


def _parse_range(text: str, key: str, lineno: int) -> range:
    """An integer, or ``lo..hi`` with both ends included, as a ``range`` that
    is never listed; one longer than ``sys.maxsize``, which Python cannot
    size, is refused."""
    text = text.strip()
    if ".." not in text:
        value = _parse_int(text, key, lineno)
        return range(value, value + 1)
    lo, hi = (_parse_int(end, key, lineno) for end in text.split("..", 1))
    if hi < lo:
        raise ValueError(f"line {lineno}: {key} range {quote_token(text)} is empty")
    if hi - lo >= sys.maxsize:
        raise ValueError(f"line {lineno}: {key} range {quote_token(text)} has more than {sys.maxsize} entries")
    return range(lo, hi + 1)


def _parse_int_list(text: str, key: str, lineno: int) -> list[int]:
    return [_parse_int(tok, f"{key} entry", lineno) for tok in text.split(",") if tok.strip()]


_BOOL = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


class MeasureConfig(_Record):
    """A parsed measure config: the sets to scan, their thresholds and the scan settings."""

    __slots__ = ("specs", "x_grid", "samples", "seed", "budget", "iter_limit", "fallback", "out")
    specs: tuple[me.SetFamilySpec, ...]
    x_grid: tuple[Fraction, ...]
    samples: int
    seed: int
    budget: int
    iter_limit: int
    fallback: bool
    out: str

    def __init__(
        self,
        specs: tuple[me.SetFamilySpec, ...],
        x_grid: tuple[Fraction, ...],
        samples: int,
        seed: int,
        budget: int,
        iter_limit: int,
        fallback: bool,
        out: str,
    ) -> None:
        self._set(specs, x_grid, samples, seed, budget, iter_limit, fallback, out)


# each set key's line number and value text
_Keys = dict[str, tuple[int, str]]


def _take(keys: _Keys, key: str, default: str | None = None) -> str:
    """Pop the value of ``key``; a key without a default must be set."""
    if key in keys:
        return keys.pop(key)[1]
    if default is None:
        raise ValueError(f"config needs {key} = ...")
    return default


def _line(keys: _Keys, key: str) -> int:
    """The line of ``key``, or 0 for a key left to its default."""
    return keys[key][0] if key in keys else 0


def _take_int(
    keys: _Keys, key: str, default: str | None = None, parse=_parse_int, least: int | None = None
) -> int | list[int] | range:
    """Pop ``key`` and read its value with ``parse``; its errors, and a value
    below ``least``, name the key and its line.  A range ascends, so only its
    first entry is compared."""
    lineno = _line(keys, key)
    value = parse(_take(keys, key, default), key, lineno)
    entries = value[:1] if isinstance(value, range) else value if isinstance(value, list) else [value]
    if least is not None and any(v < least for v in entries):
        raise ValueError(f"line {lineno}: {key} must be >= {least}")
    return value


def _read_thresholds(family: str, keys: _Keys) -> tuple[Fraction, ...]:
    """The ``x`` list, or the value of ``threshold_point`` after ``threshold_iter`` digit drops."""
    if "x" in keys or "threshold_point" not in keys:
        lineno = _line(keys, "x")
        xs = tuple(parse_rational(tok) for tok in _take(keys, "x", "").split(",") if tok.strip())
        if not xs:
            raise ValueError(f"{family} needs x = ... or threshold_point = ...")
        if not all(0 <= x <= 1 for x in xs):
            raise ValueError(f"line {lineno}: x must lie in [0, 1]")
        return xs
    lineno = _line(keys, "threshold_point")
    point = parse_expansion(_take(keys, "threshold_point"))
    x = value_of(sh.shift_n(point, _take_int(keys, "threshold_iter", "0", least=0)))
    if _over_str_limit(x.denominator):  # the CSV prints it; x <= 1 keeps the numerator shorter
        raise ValueError(f"line {lineno}: threshold_point value has more than {sys.get_int_max_str_digits()} digits")
    return (x,)


def _read_itershift(family: str, q: int, keys: _Keys) -> list[me.SetFamilySpec]:
    lineno = _line(keys, "n")
    ns = _take_int(keys, "n", parse=_parse_range, least=1)
    limit = 10**5  # the most iterate counts one itershift config may scan
    if len(ns) > limit:
        text = quote_token(f"{ns[0]}..{ns[-1]}")
        raise ValueError(f"line {lineno}: n range {text} has more than {limit} entries")
    return [me.SetFamilySpec.iter_shift(q, n) for n in ns]


def _read_chain(family: str, q: int, keys: _Keys) -> list[me.SetFamilySpec]:
    table = _take_int(keys, "indices" if "indices" in keys else "psi", "", _parse_int_list, least=1)
    if not table:
        raise ValueError(f"{family} needs indices= (or psi=)")
    lineno = _line(keys, "count")
    counts = _take_int(keys, "count", str(len(table)), _parse_range)
    if counts[0] < 1 or counts[-1] > len(table):
        raise ValueError(f"line {lineno}: count must lie in 1..{len(table)}, the lookup table length")
    limit = max(10**6, len(table))  # so a single count, at most the table, always passes
    if (counts[0] + counts[-1]) * len(counts) > 2 * limit:
        text = quote_token(f"{counts[0]}..{counts[-1]}")
        raise ValueError(f"line {lineno}: count range {text} lists more than {limit} chain indices")
    return [me.SetFamilySpec(me.FamilyKind(family), q, indices=tuple(table[:c])) for c in counts]


def _read_compareiter(family: str, q: int, keys: _Keys) -> list[me.SetFamilySpec]:
    if "psi" not in keys and "phi" not in keys:
        return [me.SetFamilySpec.compare_iter(q, _take_int(keys, "a", least=1), _take_int(keys, "b", least=1))]
    psi, phi = (_take_int(keys, key, parse=_parse_int_list, least=1) for key in ("psi", "phi"))
    if not psi or len(psi) != len(phi):
        raise ValueError("psi and phi tables must be nonempty and of equal length")
    return [me.SetFamilySpec.compare_iter(q, a, b) for a, b in zip(psi, phi)]


_READERS = {
    "itershift": _read_itershift,
    "genchain": _read_chain,
    "schedulechain": _read_chain,
    "compareiter": _read_compareiter,
}


def parse_config(text: str) -> MeasureConfig:
    """Plain ``key = value`` lines; '#' starts a comment.  The family's reader
    and the scan settings take the keys they read; any key left is an error."""
    keys: _Keys = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in keys:
            raise ValueError(f"line {lineno}: key {key} set twice")
        keys[key] = (lineno, value.strip())
    family = _take(keys, "family").lower()
    if family not in _READERS:
        raise ValueError(f"unknown family {quote_token(family)}")
    q = _take_int(keys, "q", least=2)
    specs = tuple(_READERS[family](family, q, keys))
    x_grid = () if family == "compareiter" else _read_thresholds(family, keys)
    lineno = _line(keys, "fallback")
    fallback = _BOOL.get(_take(keys, "fallback", "true").lower())
    if fallback is None:
        raise ValueError(f"line {lineno}: fallback must be true or false")
    cfg = MeasureConfig(
        specs,
        x_grid,
        samples=_take_int(keys, "samples", str(me.DEFAULT_SAMPLES), least=1 if fallback else None),
        seed=_take_int(keys, "seed", "0", least=0),
        budget=_take_int(keys, "budget", str(me.DEFAULT_BRANCH_BUDGET), least=1),
        iter_limit=_take_int(keys, "iter_limit", str(me.DEFAULT_ITER_LIMIT), least=1),
        fallback=fallback,
        out=_take(keys, "out", "measures.csv"),
    )
    if keys:
        key, (lineno, _) = next(iter(keys.items()))
        raise ValueError(f"line {lineno}: {family} does not read {key}")
    return cfg


def cmd_measure(args) -> int:
    try:
        with open(args.config, "r", encoding="ascii") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"config is not ASCII: {exc}") from None
    # an empty --out keeps the config's path; ``gk_scan`` checks --budget and --seed
    flags = {"budget": args.budget, "seed": args.seed, "out": args.out or None}
    cfg = parse_config(text)._replace(**{k: v for k, v in flags.items() if v is not None})
    # an unwritable out fails here, before the scan.  Opened to append, an
    # existing file is truncated only once the table is ready, and a file
    # made here is removed if the scan or render fails
    made = not os.path.lexists(cfg.out)
    with open(cfg.out, "a", encoding="ascii") as handle:
        try:
            rows = me.gk_scan(
                cfg.specs,
                cfg.x_grid,
                budget=cfg.budget,
                iter_limit=cfg.iter_limit,
                samples=cfg.samples,
                seed=cfg.seed,
                allow_fallback=cfg.fallback,
                log=lambda msg: print(msg, file=sys.stderr),
            )
            table = me.rows_to_csv(rows)
        except BaseException:
            handle.close()
            if made:
                os.remove(cfg.out)
            raise
        if not made:
            handle.truncate(0)
        handle.write(table)
    print(f"wrote {len(rows)} rows to {cfg.out}", file=sys.stderr)
    return EXIT_OK


def _int_flag(text: str) -> int:
    """argparse type of the integer flags: ``int``, with a bad value quoted
    through ``quote_token`` so a huge one is clipped."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quote_token(text)}") from None


# main dispatches through this dict rather than argparse defaults, so a
# wrapper bound to an entry (a tracer's, say) is what runs
_COMMANDS = {"eval": cmd_eval, "curve": cmd_curve, "verify": cmd_verify, "measure": cmd_measure}


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

    p_curve = sub.add_parser("curve", help="write a CSV curve of the function")
    p_curve.add_argument("spec")
    p_curve.add_argument("--grid", type=_int_flag, default=256, help="number of grid cells (>= 2)")
    p_curve.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help="suite name or 'all'")
    p_verify.add_argument(
        "--spec",
        default=None,
        help="function spec read by the system, integral and continuity suites"
        f' (default "{sm.format_function_spec(DEFAULT_FUNCTION)}")',
    )

    p_measure = sub.add_parser("measure", help="run a measure experiment from a config file")
    p_measure.add_argument("config")
    p_measure.add_argument("--out", default=None, help="override the config output path")
    p_measure.add_argument("--budget", type=_int_flag, default=None)
    p_measure.add_argument("--seed", type=_int_flag, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except me.BudgetExceededError as exc:
        return _fail(str(exc), EXIT_BUDGET)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

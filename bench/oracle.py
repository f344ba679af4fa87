"""Output oracles for the benchmark, written without any cantorshift code.

Digit streams come from integer long division with period detection, and
Salem values from the series summed exactly over the pre-period plus a
geometric fixed point over one period, so every rational has an exact
image here.  The program truncates non-terminating expansions, so curve and
eval values are compared with a tolerance, never byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

CSV_HEADER = "family,param,x_num,x_den,measure_num,measure_den,method,samples,halfwidth"

# The CLI prints values with 12 decimals and truncates series at the depth
# whose remainder bound (max|p|)^K / (1 - max|p|) falls below its default tol.
PRINT_HALF_ULP = 5e-13
DEFAULT_TOL = 1e-12


def digit_stream(x: Fraction, q: int) -> tuple[list[int], list[int]]:
    """Base-q digits of x in [0, 1] as (pre-period, repeating block).

    Terminating values end in the block (0); x = 1 is the all-max stream.
    """
    if x == 1:
        return [], [q - 1]
    num, den = x.numerator, x.denominator
    seen: dict[int, int] = {}
    digits: list[int] = []
    while num not in seen:
        seen[num] = len(digits)
        d, num = divmod(num * q, den)
        digits.append(d)
    start = seen[num]
    return digits[:start], digits[start:]


def salem_value(
    weights: tuple[Fraction, ...],
    perm: tuple[int, ...],
    prefix: list[int],
    block: list[int],
) -> Fraction:
    """Exact g(x) for the digit stream prefix + block block block ...

    ``perm`` is the reading order's finite rearrangement of 1..s; slots past
    s read positions in order.
    """
    beta = [Fraction(0)]
    for w in weights[:-1]:
        beta.append(beta[-1] + w)
    prefix, block = list(prefix), list(block)
    while len(prefix) < len(perm):
        prefix.append(block[0])
        block = block[1:] + block[:1]
    order = [prefix[n - 1] for n in perm] + prefix[len(perm):]
    total, prod = Fraction(0), Fraction(1)
    for d in order:
        total += beta[d] * prod
        prod *= weights[d]
    head, period_prod = Fraction(0), Fraction(1)
    for d in block:
        head += beta[d] * period_prod
        period_prod *= weights[d]
    return total + prod * head / (1 - period_prod)


def value_tolerance(weights: tuple[Fraction, ...]) -> float:
    """Largest gap allowed between a printed value and the exact one."""
    pmax = float(max(abs(w) for w in weights))
    return PRINT_HALF_ULP + DEFAULT_TOL / (1.0 - pmax) + 1e-14


def close(printed: str, exact: Fraction, tol: float) -> bool:
    try:
        return abs(float(printed) - float(exact)) <= tol
    except ValueError:
        return False


def check_eval(stdout: str, exact: Fraction, tol: float) -> tuple[bool, int]:
    lines = stdout.split()
    return len(lines) == 1 and close(lines[0], exact, tol), 1


def check_curve(text: str, expected: list[Fraction], tol: float) -> tuple[bool, int]:
    """``expected[i]`` is g(i/n); the file must hold the n+1 grid rows."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    n = len(expected) - 1
    if not lines or lines[0] != "x,g" or len(lines) != n + 2:
        return False, 0
    for i, (line, g) in enumerate(zip(lines[1:], expected)):
        parts = line.split(",")
        if len(parts) != 2 or not close(parts[0], Fraction(i, n), PRINT_HALF_ULP + 1e-15):
            return False, 0
        if not close(parts[1], g, tol):
            return False, 0
    # g(0) = 0 and g(1) = 1 for every admissible weight set and order.
    ends_ok = close(lines[1].split(",")[1], Fraction(0), tol) and close(lines[-1].split(",")[1], Fraction(1), tol)
    return ends_ok, n + 1


def check_scan(text: str, expected: list[tuple]) -> tuple[bool, int]:
    """Check measure CSV rows against their closed-form values.

    ``expected`` lists (family, param, x or None, true measure) per row in
    order.  A shift composition over a constant base preserves Lebesgue
    measure, so {z : op(z) < x} has measure x; {z : sigma^a z < sigma^b z}
    has measure 1/2 when a != b (the digit map d -> q-1-d swaps the two
    sides) and 0 when a = b.  Rows computed exactly must equal the value;
    Monte Carlo rows must lie within 4 halfwidths of it.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER or len(lines) != len(expected) + 1:
        return False, 0
    for line, (family, param, x, truth) in zip(lines[1:], expected):
        cols = line.split(",")
        if len(cols) != 9 or cols[0] != family or cols[1] != param:
            return False, 0
        want_x = ["", ""] if x is None else [str(x.numerator), str(x.denominator)]
        if cols[2:4] != want_x:
            return False, 0
        try:
            measure = Fraction(int(cols[4]), int(cols[5]))
        except (ValueError, ZeroDivisionError):
            return False, 0
        if cols[6] == "mc":
            try:
                halfwidth = float(cols[8])
                samples = int(cols[7])
            except ValueError:
                return False, 0
            if samples < 1 or abs(float(measure - truth)) > 4 * halfwidth + 1e-12:
                return False, 0
        elif measure != truth:
            return False, 0
    return True, len(expected)


def check_verify(stdout: str) -> tuple[bool, int]:
    lines = stdout.splitlines()
    return bool(lines) and all(line.startswith("PASS") for line in lines), len(lines)

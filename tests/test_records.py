"""The immutable value classes behave as frozen dataclasses did: compared,
hashed and shown by their fields, closed to assignment and deletion, and
rebuilt equal by copy, deepcopy and pickle.  The repr texts are the ones the
frozen dataclasses printed, and from Python 3.13 ``copy.replace`` rebuilds
them through their checks as it did.  A fresh interpreter imports the CLI
without ``dataclasses``, ``inspect`` or ``typing``."""

import copy
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cantorshift import verify
from cantorshift.cli import MeasureConfig
from cantorshift.expansions import BaseSpec, Cylinder, DigitExpansion, Tail, _Record, dual_representation
from cantorshift.measure import Branch, MonteCarloResult, ScanRow, SetFamilySpec
from cantorshift.salem import (
    ContinuityResult,
    DistributionSpec,
    IndexSequence,
    SalemFunction,
    WeightSet,
    chain_expansion,
)
from cantorshift.shifts import delete_positions, shift_n

SRC = Path(__file__).resolve().parent.parent / "src"

F = Fraction
Q3 = "BaseSpec(prefix=(), tail_value=3)"
WEIGHTS = "WeightSet(q=2, p=(Fraction(3, 10), Fraction(7, 10)))"
CHAIN = "SetFamilySpec(kind=<FamilyKind.GEN_CHAIN: 'genchain'>, q=3, n=0, indices=(2, 1), a=0, b=0)"


def weights():
    return WeightSet(2, (F(3, 10), F(7, 10)))


# (build, the fields it is compared and hashed by, its repr)
CASES = {
    "BaseSpec": (
        lambda: BaseSpec.cantor([3, 4, 5, 5], 5),
        ((3, 4), 5),
        "BaseSpec(prefix=(3, 4), tail_value=5)",
    ),
    "DigitExpansion": (
        lambda: DigitExpansion(BaseSpec.constant(3), (1, 2, 0), Tail.MAX),
        (BaseSpec.constant(3), (1, 2, 0), Tail.MAX),
        f"DigitExpansion(base={Q3}, prefix=(1, 2, 0), tail=<Tail.MAX: 'max'>)",
    ),
    "Cylinder": (
        lambda: Cylinder(BaseSpec.constant(3), (2, 0)),
        (BaseSpec.constant(3), (2, 0)),
        f"Cylinder(base={Q3}, word=(2, 0))",
    ),
    "WeightSet": (weights, (2, (F(3, 10), F(7, 10))), WEIGHTS),
    "IndexSequence": (lambda: IndexSequence((2, 1, 3)), ((2, 1),), "IndexSequence(prefix=(2, 1))"),
    "SalemFunction": (
        lambda: SalemFunction(weights(), IndexSequence((2, 1))),
        (weights(), IndexSequence((2, 1))),
        f"SalemFunction(weights={WEIGHTS}, seq=IndexSequence(prefix=(2, 1)))",
    ),
    "DistributionSpec": (lambda: DistributionSpec(weights()), (weights(),), f"DistributionSpec(weights={WEIGHTS})"),
    "ContinuityResult": (
        lambda: ContinuityResult(F(-1, 5)),
        (F(-1, 5),),
        "ContinuityResult(jump=Fraction(-1, 5))",
    ),
    "Branch": (
        lambda: Branch(F(0), F(1, 2), F(2), F(-1, 3)),
        (F(0), F(1, 2), F(2), F(-1, 3)),
        "Branch(lo=Fraction(0, 1), hi=Fraction(1, 2), slope=Fraction(2, 1), intercept=Fraction(-1, 3))",
    ),
    "SetFamilySpec": (
        lambda: SetFamilySpec.gen_chain(3, (2, 1)),
        (SetFamilySpec.gen_chain(3, (2, 1)).kind, 3, 0, (2, 1), 0, 0),
        CHAIN,
    ),
    "MonteCarloResult": (
        lambda: MonteCarloResult(0.25, 0.125, 100, 25, 1),
        (0.25, 0.125, 100, 25, 1),
        "MonteCarloResult(estimate=0.25, halfwidth=0.125, samples=100, hits=25, indeterminate=1)",
    ),
    "ScanRow": (
        lambda: ScanRow("itershift", "2", F(1, 3), F(1, 4), "exact"),
        ("itershift", "2", F(1, 3), F(1, 4), "exact", 0, 0.0, 0),
        "ScanRow(family='itershift', param='2', x=Fraction(1, 3), measure=Fraction(1, 4),"
        " method='exact', samples=0, halfwidth=0.0, indeterminate=0)",
    ),
    "MeasureConfig": (
        lambda: MeasureConfig((SetFamilySpec.gen_chain(3, (2, 1)),), (F(1, 2),), 10, 0, 7, 8, True, "m.csv"),
        ((SetFamilySpec.gen_chain(3, (2, 1)),), (F(1, 2),), 10, 0, 7, 8, True, "m.csv"),
        f"MeasureConfig(specs=({CHAIN},), x_grid=(Fraction(1, 2),), samples=10, seed=0, budget=7,"
        " iter_limit=8, fallback=True, out='m.csv')",
    ),
}


@pytest.mark.parametrize("name", CASES)
class TestValueClassParity:
    def test_compared_and_hashed_by_fields(self, name):
        build, fields, _ = CASES[name]
        obj = build()
        assert obj == build() and not obj != build()
        assert hash(obj) == hash(build()) == hash(fields)
        other = CASES["Branch" if name != "Branch" else "ScanRow"][0]()
        assert obj != other and not obj == other
        assert obj != fields and not obj == fields

    def test_repr_is_the_dataclass_text(self, name):
        build, _, text = CASES[name]
        assert repr(build()) == text

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        obj = CASES[name][0]()
        # the first field, read from the repr text, which both dataclasses and records print
        field = CASES[name][2].split("(", 1)[1].split("=", 1)[0]
        before = getattr(obj, field)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(obj, field)
        assert getattr(obj, field) is before

    def test_copies_and_pickles_rebuild_an_equal_object(self, name):
        obj = CASES[name][0]()
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)

    @pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
    def test_copy_replace_rebuilds_an_equal_object(self, name):
        obj = CASES[name][0]()
        assert copy.replace(obj) == obj and copy.replace(obj) is not obj


def test_weight_set_rebuilds_its_derived_fields():
    w = weights()
    twin = pickle.loads(pickle.dumps(w))
    assert (twin.beta, twin.den, twin.p_num, twin.beta_num) == ((0, F(3, 10)), 10, (3, 7), (0, 3))


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_applies_and_checks_changes():
    assert copy.replace(IndexSequence((2, 1)), prefix=(1, 3, 2)) == IndexSequence((1, 3, 2))
    with pytest.raises(ValueError, match="^prefix must be a permutation of 1..N$"):
        copy.replace(IndexSequence((2, 1)), prefix=(1, 1))


def test_the_cli_imports_without_dataclasses_or_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cantorshift.cli; "
        "assert cantorshift.cli.__file__.startswith(sys.argv[1]); "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def rebuilt(record):
    """``record`` built again through its checking constructor, its record
    fields first: it raises if a field breaks a check, and differs if one was
    stored in a form the constructor would normalize."""
    return type(record)(*(rebuilt(v) if isinstance(v, _Record) else v for v in record._values()))


class TestTrustedBuilders:
    """The builders store records whose values hold by construction through
    ``_Record._make``, past the checks; each such record equals its rebuild."""

    @staticmethod
    def expansions(rng, cantor):
        for _ in range(200):
            if cantor:
                base = BaseSpec.cantor([rng.randrange(2, 6) for _ in range(rng.randrange(0, 6))], rng.randrange(2, 6))
            else:
                base = BaseSpec.constant(rng.choice([2, 3, 10]))
            digits = tuple(rng.randrange(base.base_at(k)) for k in range(1, rng.randrange(0, 10) + 1))
            yield DigitExpansion(base, digits, rng.choice([Tail.ZEROS, Tail.MAX]))

    @pytest.mark.parametrize("cantor", [False, True], ids=["constant", "cantor"])
    def test_duals_shifts_and_deletions(self, cantor):
        rng = random.Random(907 + cantor)
        tails, built = set(), 0
        for e in self.expansions(rng, cantor):
            tails.add(e.tail)
            records = [dual_representation(e)] + [shift_n(e, n) for n in range(12)]
            records += [delete_positions(e, rng.sample(range(1, 12), rng.randrange(0, 5))) for _ in range(4)]
            for r in filter(None, records):
                assert rebuilt(r) == r and rebuilt(r.base) == r.base
                built += 1
        assert tails == {Tail.ZEROS, Tail.MAX} and built > 3000

    def test_chain_expansions_and_orders(self):
        rng = random.Random(911)
        w = WeightSet(3, (F(1, 5), F(2, 5), F(2, 5)))
        for order in ((), (3, 1, 2), (1, 5, 7, 3, 6, 10, 2, 4, 8, 9)):
            f = SalemFunction(w, IndexSequence(order))
            for e in self.expansions(rng, cantor=False):
                e = DigitExpansion(BaseSpec.constant(3), tuple(d % 3 for d in e.prefix), e.tail)
                for k in range(len(order) + 3):
                    r = chain_expansion(f, e, k)
                    assert rebuilt(r) == r and rebuilt(r.base) == r.base
                    assert rebuilt(f.seq.induced_after(k)) == f.seq.induced_after(k)

    @staticmethod
    def checked_expansion(rng, cantor=False, maxlen=12):
        """``verify._random_expansion``'s case, drawn by ``randrange`` and built checked."""
        if cantor:
            prefix = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(0, 4)))
            base = BaseSpec.cantor(prefix, rng.randrange(2, 6))
        else:
            base = BaseSpec.constant(rng.choice([2, 3, 10]))
        n = rng.randrange(0, maxlen)
        digits = tuple(rng.randrange(base.base_at(k)) for k in range(1, n + 1))
        return DigitExpansion(base, digits, rng.choice([Tail.ZEROS, Tail.MAX]))

    @staticmethod
    def checked_terminating(rng, q, length):
        return DigitExpansion(BaseSpec.constant(q), tuple(rng.randrange(q) for _ in range(length)))

    @staticmethod
    def checked_two_expansion_point(rng, q, maxlen):
        digits = [rng.randrange(q) for _ in range(rng.randrange(1, maxlen))]
        if digits[-1] == 0:
            digits[-1] = rng.randrange(1, q)
        return DigitExpansion(BaseSpec.constant(q), tuple(digits))

    @staticmethod
    def assert_same_cases(builder, checked, args):
        """For seeds 0-20, ``builder`` returns exactly the cases ``checked``
        builds from the same stream, and leaves the stream where it does."""
        for seed in range(21):
            fast, slow = random.Random(seed), random.Random(seed)
            cases = [builder(fast, *args) for _ in range(40)]
            assert cases == [checked(slow, *args) for _ in range(40)]
            assert fast.getstate() == slow.getstate()
            for e in cases:
                assert rebuilt(e) == e and type(e.prefix) is tuple

    @pytest.mark.parametrize("q", [2, 3, 4, 10])
    @pytest.mark.parametrize(
        "builder, checked, size",
        [
            (verify.random_terminating, checked_terminating, 12),
            (verify.random_terminating, checked_terminating, 0),
            (verify.random_two_expansion_point, checked_two_expansion_point, 8),
            (verify.random_two_expansion_point, checked_two_expansion_point, 2),
        ],
        ids=["terminating", "terminating-empty", "two-expansion", "two-expansion-one-digit"],
    )
    def test_constant_base_cases_are_the_checked_randrange_cases(self, q, builder, checked, size):
        self.assert_same_cases(builder, checked.__func__, (q, size))

    @pytest.mark.parametrize("cantor", [False, True], ids=["constant", "cantor"])
    @pytest.mark.parametrize("maxlen", [12, 6])
    def test_expansions_are_the_checked_randrange_cases(self, cantor, maxlen):
        self.assert_same_cases(verify._random_expansion, self.checked_expansion, (cantor, maxlen))

    def test_constant_bases_keep_their_check(self):
        for q in (2, 3, 10**40):
            assert rebuilt(BaseSpec.constant(q)) == BaseSpec.constant(q) == BaseSpec((), q)
        for q in (1, 0, -3):
            with pytest.raises(ValueError, match="^base entries must be >= 2$"):
                BaseSpec.constant(q)

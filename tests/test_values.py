"""The seven value classes against the dataclasses they replaced.

``Word``, ``DecorationMap``, ``DecoratedWord``, ``CheckResult``,
``VerificationReport``, ``FiberFamily`` and ``BratteliDiagram`` are
``__slots__`` classes over one private base in ``core``.  The references
below are their former ``@dataclass`` definitions, kept as they were (with
the same class names, so that the two ``repr`` strings can be compared), and
every instance built from the samples and from seeded ``random_system``
draws must behave as its reference twin does.
"""

import copy
import itertools
import os
import pickle
import random
from dataclasses import dataclass, field

import pytest

from rankshift import af_core, builders, core, verify
from rankshift.cli import load_system
from rankshift.completion import words_of_shape

SAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "samples")


@dataclass(frozen=True)
class Word:
    shape: tuple
    letters: tuple

    def __post_init__(self):
        if any(m < 0 for m in self.shape):
            raise ValueError(f"negative shape {self.shape}")
        if len(self.letters) != core.box_size(self.shape):
            raise ValueError(
                f"{len(self.letters)} letters do not fill a box of shape {self.shape}")


@dataclass(frozen=True)
class DecorationMap:
    names: tuple
    delta: tuple

    def __post_init__(self):
        if not self.names or not all(isinstance(d, str) for d in self.names):
            raise ValueError("decorations.names must be a nonempty string list")
        for i, d in enumerate(self.names):
            if not d or any(c.isspace() for c in d):
                raise ValueError(f"decorations.names[{i}] is {d!r}, decoration "
                                 f"names must be nonempty with no whitespace")
        if len(set(self.names)) != len(self.names):
            raise ValueError("decorations.names has duplicate names")
        if len(self.delta) != len(self.names):
            raise ValueError("decorations.delta must align with decorations.names")


@dataclass(frozen=True)
class DecoratedWord:
    decoration: int
    word: Word


@dataclass(frozen=True)
class CheckResult:
    condition: str
    status: verify.Status
    witness: object = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple


@dataclass
class FiberFamily:
    direction: int
    sets_by_origin: dict
    provenance: dict


@dataclass(frozen=True)
class BratteliDiagram:
    system: core.TileSystem
    decorations: DecorationMap
    upto: tuple
    nodes: dict = field(compare=False)


REFERENCE = {core.Word: Word, core.DecorationMap: DecorationMap,
             core.DecoratedWord: DecoratedWord, verify.CheckResult: CheckResult,
             verify.VerificationReport: VerificationReport,
             verify.FiberFamily: FiberFamily, af_core.BratteliDiagram: BratteliDiagram}
FROZEN = set(REFERENCE) - {verify.FiberFamily}


def fields(x):
    return [getattr(x, name) for name in type(x).__slots__]


def reference(x):
    """x with every value class in it, and in its tuples, swapped for the
    reference dataclass; other values are kept as they are."""
    if isinstance(x, tuple):
        return tuple(map(reference, x))
    if type(x) in REFERENCE:
        return REFERENCE[type(x)](*map(reference, fields(x)))
    return x


def values(ts, dmap, rng):
    """Instances of every value class from one system."""
    rank = ts.rank
    words = list(itertools.islice(words_of_shape(ts, (1,) * rank), 4))
    words += [core.letter_word(rank, a) for a in range(ts.n_letters)]
    delta = tuple(rng.randrange(ts.n_letters) for _ in range(rng.randint(1, 4)))
    maps = [dmap, core.DecorationMap.identity(ts.alphabet),
            core.DecorationMap(tuple(f"d{i}" for i in range(len(delta))), delta)]
    decorated = [core.DecoratedWord(d, w) for w in words[:3] for d in range(2)]
    report = verify.verify_report(ts)
    star, family = verify.check_h3_star(ts, 1)
    diagrams = [af_core.bratteli(ts, m, (1,) * rank) for m in maps[:2]]
    # equal to diagrams[0] in every compared field, but with other nodes
    diagrams.append(af_core.BratteliDiagram(ts, dmap, (1,) * rank, {}))
    return [*words, *maps, *decorated, *report.checks, report, star, family, *diagrams,
            verify.CheckResult("H0", verify.Status.PASS),
            verify.CheckResult("H0", verify.Status.PASS, None, {})]


def systems():
    rng = random.Random(0x5107)
    out = [(f"sample {name}", *load_system(os.path.join(SAMPLES, f"{name}.json")))
           for name in ("gm", "gm2", "fs2")]
    for k in range(6):
        ts = builders.random_system(rng, rng.randint(1, 3), k % 2 + 1,
                                    density=rng.choice([0.4, 0.7, 1.0]))
        out.append((f"random {k}", ts, core.DecorationMap.identity(ts.alphabet)))
    return out


@pytest.fixture(scope="module", params=systems(), ids=lambda s: s[0])
def pairs(request):
    """(instance, its reference twin) pairs from one system."""
    _, ts, dmap = request.param
    new = values(ts, dmap, random.Random(request.param[0]))
    return list(zip(new, map(reference, new)))


def outcome(f, *args):
    """f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def outcome_error(cls, *args):
    """The ValueError that cls(*args) raises."""
    with pytest.raises(ValueError) as info:
        cls(*args)
    return info.value


def test_every_class_is_covered(pairs):
    assert {type(x) for x, _ in pairs} == set(REFERENCE)


def test_repr_and_hash_match(pairs):
    for x, old in pairs:
        assert repr(x) == repr(old)
        assert outcome(hash, x) == outcome(hash, old), x


def test_equality_matches(pairs):
    """== and != between every two instances, whatever their classes, and
    against the plain tuple of an instance's fields."""
    for (x, old), (y, old_y) in itertools.product(pairs, repeat=2):
        assert (x == y, x != y) == (old == old_y, old != old_y), (x, y)
    for x, old in pairs:
        plain = tuple(fields(x))
        assert (x == plain, x != plain, plain == x) == (old == plain, old != plain, plain == old)


def test_construction_by_position_and_keyword(pairs):
    for x, _ in pairs:
        by_name = dict(zip(type(x).__slots__, fields(x)))
        for y in (type(x)(*fields(x)), type(x)(**by_name)):
            assert type(y) is type(x)
            assert fields(y) == fields(x)
            assert y == x


def test_frozen_classes_refuse_assignment(pairs):
    for x, old in pairs:
        for name, value in zip(type(x).__slots__, fields(x)):
            if type(x) in FROZEN:
                for obj in (x, old):
                    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                        setattr(obj, name, value)
                    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                        delattr(obj, name)
            else:
                setattr(x, name, value)
                assert getattr(x, name) is value
        with pytest.raises(AttributeError):
            x.extra = 1  # no field is added after construction


def test_copy_deepcopy_and_pickle_round_trip(pairs):
    """Each round trip gives an instance of the same class with equal fields,
    and a copy or a deep copy shares with the original the fields that the
    reference's copy shares (a shallow copy shares every field)."""
    unpickle = lambda v: pickle.loads(pickle.dumps(v))  # noqa: E731
    for x, old in pairs:
        names = type(x).__slots__
        for make in (copy.copy, copy.deepcopy, unpickle):
            clone = make(x)
            assert type(clone) is type(x)
            assert fields(clone) == fields(x)
            assert clone == x
        for make in (copy.copy, copy.deepcopy):
            clone, old_clone = make(x), make(old)
            assert ([getattr(clone, n) is getattr(x, n) for n in names]
                    == [getattr(old_clone, n) is getattr(old, n) for n in names])


def test_check_result_params_is_fresh_per_instance():
    for cls in (verify.CheckResult, CheckResult):
        a, b = cls("H0", verify.Status.PASS), cls("H0", verify.Status.PASS, witness=None)
        assert a.params == b.params == {} and a.params is not b.params
        a.params["bound"] = 1
        assert b.params == {}
        given = {"bound": 2}
        assert cls("H0", verify.Status.FAIL, {}, given).params is given


@pytest.mark.parametrize("args", [
    ((-1,), (0,)), ((1,), (0,)), ((1, 1), (0, 1, 2)), ((), (0, 1)),
])
def test_word_validation_matches(args):
    assert str(outcome_error(core.Word, *args)) == str(outcome_error(Word, *args))


@pytest.mark.parametrize("args", [
    ((), ()), (("a", 1), (0, 0)), (("a", ""), (0, 0)), (("a b",), (0,)),
    (("a", "a"), (0, 0)), (("a", "b"), (0,)),
])
def test_decoration_map_validation_matches(args):
    assert str(outcome_error(core.DecorationMap, *args)) == str(outcome_error(DecorationMap, *args))

"""Exact scalars, instance model, cut representation and instance I/O.

Every number in this library is a :class:`fractions.Fraction`, or an integer
in an integer view (an instance or a point scaled by a common denominator).
There are no tolerance parameters anywhere: cut generation, separation and
hull membership are decided by exact comparisons, so two runs on the same
input are bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]


class MixcutsError(Exception):
    """Base class for all library errors.

    ``exit_code`` is the command line's exit status for the error: 1 for
    unreadable input, 2 for invalid data, 4 only for a failed certified check.
    """

    exit_code = 2


class ParseError(MixcutsError):
    """Raised for malformed or unreadable instance/point documents, and for
    output files that cannot be written."""

    exit_code = 1


class ValidationError(MixcutsError):
    """Raised when a parsed document violates an instance invariant."""


class AllZeroCut(MixcutsError):
    """Raised when canonicalizing a cut with no nonzero coefficient or rhs."""


class DimensionMismatch(MixcutsError):
    """Raised when vector/matrix dimensions disagree."""


class GroundSetTooLarge(MixcutsError):
    """Raised when an exhaustive operation is asked to enumerate too much."""


# The one limit on exponential work: every path that lists sequences,
# chains, masks or cut checks counts them from its inputs first.
WORK_BUDGET = 2_000_000


def check_work(count: int, what: str) -> None:
    """Refuse up front a path that would do ``count`` units of ``what``
    (a plural noun phrase), when that is more than ``WORK_BUDGET``."""
    if count > WORK_BUDGET:
        raise GroundSetTooLarge(
            f"{count} {what}, more than WORK_BUDGET = {WORK_BUDGET}"
        )


class DomainError(MixcutsError):
    """Raised when a fractional point lies outside its required box."""


class InvalidSequence(MixcutsError):
    """Raised for index sequences violating their ordering invariants."""


class LowerBoundsNotReduced(MixcutsError):
    """Raised by operations that require lower bounds to be zero."""


class RiskOutOfRange(MixcutsError):
    """Raised when a quantile risk level is outside (0, 1)."""


class EpsilonViolated(MixcutsError):
    """Raised when a point fails the linking precondition of a separation."""


class PreconditionFailed(MixcutsError):
    """Raised by witness constructors when their case analysis does not apply."""


class ConditionViolated(MixcutsError):
    """Raised when two-sided data violates its admissibility condition."""


class InternalInvariant(MixcutsError):
    """Raised when a certified internal consistency check fails."""

    exit_code = 4


def parse_rational(text: RationalLike) -> Fraction:
    """Parse an exact rational from an int, 'a/b', integer or decimal string.

    Decimal strings convert exactly ('0.25' -> 1/4); no float ever occurs.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {text!r}") from exc
    raise ParseError(f"not a rational: {text!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'a' or 'a/b' (never a decimal)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fracs(values: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """A list or tuple of rationals; anything else is a :class:`ParseError`."""
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"not a list of rationals: {values!r}")
    return tuple(parse_rational(v) for v in values)


# The shared zero and one: every zero coefficient of a cut is ZERO, whether
# parsed by ``LinearCut`` or assembled by :meth:`MixingInstance.row_cut`,
# and an assembled cut's coefficient 1 is ONE.
ZERO = Fraction(0)
ONE = Fraction(1)


def _coeffs(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """Like :func:`_fracs`, with every zero the shared ``ZERO``.  ``ZERO``
    itself and a nonzero Fraction are taken as they are; anything else is
    parsed."""
    return tuple(
        [
            v if v is ZERO or (type(v) is Fraction and v) else parse_rational(v) or ZERO
            for v in values
        ]
    )


class CutKind(Enum):
    MIX = "Mix"
    MIX_STAR = "Mix*"
    AMIX = "AMix"
    AMIX_STAR = "AMix*"
    LINKING = "Linking"
    BOUND_LOWER = "BoundLower"
    BOUND_UPPER = "BoundUpper"
    POLYMATROID = "Polymatroid"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, eq=False, slots=True)
class LinearCut:
    """A linear inequality ``y_coeffs . y + z_coeffs . z >= rhs``.

    The stored direction is always ">="; canonicalization only scales by
    positive rationals (clearing denominators, dividing by the collective
    gcd) and never flips sign.  Two cuts compare equal iff their canonical
    integer forms are identical.
    """

    y_coeffs: tuple[Fraction, ...]
    z_coeffs: tuple[Fraction, ...]
    rhs: Fraction
    kind: CutKind = CutKind.POLYMATROID

    def __init__(
        self,
        y_coeffs: Sequence[RationalLike],
        z_coeffs: Sequence[RationalLike],
        rhs: RationalLike,
        kind: CutKind = CutKind.POLYMATROID,
    ) -> None:
        object.__setattr__(self, "y_coeffs", _coeffs(y_coeffs))
        object.__setattr__(self, "z_coeffs", _coeffs(z_coeffs))
        object.__setattr__(
            self, "rhs", rhs if type(rhs) is Fraction else parse_rational(rhs)
        )
        object.__setattr__(self, "kind", kind)

    @property
    def k(self) -> int:
        return len(self.y_coeffs)

    @property
    def n(self) -> int:
        return len(self.z_coeffs)

    def lhs(self, y: Sequence[Fraction], z: Sequence[Fraction]) -> Fraction:
        if len(y) != self.k or len(z) != self.n:
            raise DimensionMismatch(
                f"cut is {self.k}+{self.n} dimensional, point is {len(y)}+{len(z)}"
            )
        total = Fraction(0)
        for a, v in zip(self.y_coeffs, y):
            if a:
                total += a * v
        for b, v in zip(self.z_coeffs, z):
            if b:
                total += b * v
        return total

    def violation(self, y: Sequence[Fraction], z: Sequence[Fraction]) -> Fraction:
        """Positive iff the point violates the cut."""
        return self.rhs - self.lhs(y, z)

    def canonical_key(self) -> tuple[int, ...]:
        """Integer coefficient vector (alpha, beta, gamma) of the canonical form."""
        entries = list(self.y_coeffs) + list(self.z_coeffs) + [self.rhs]
        scale = math.lcm(*(e.denominator for e in entries))
        ints = [e.numerator * (scale // e.denominator) for e in entries]
        g = math.gcd(*ints)
        if g == 0:
            raise AllZeroCut("cut has no nonzero coefficient and zero rhs")
        return tuple(v // g for v in ints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCut):
            return NotImplemented
        if self.k != other.k or self.n != other.n:
            return False
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash((self.k, self.n, self.canonical_key()))

    def __str__(self) -> str:
        ints = self.canonical_key()
        return cut_text(ints[: self.k], ints[self.k : -1], ints[-1], self.kind)


def cut_text(y: Sequence[int], z: Sequence[int], rhs: int, kind: CutKind) -> str:
    """A cut's canonical integers as ``str(LinearCut)`` prints them."""
    ys, zs = " ".join(map(str, y)), " ".join(map(str, z))
    return f"{ys} | {zs} | >= {rhs} | {kind.value}"


@dataclass(frozen=True)
class MixingInstance:
    """Scenario data (coefficient matrix, lower bounds, linking threshold).

    ``weights[i][j]`` couples binary indicator i with continuous variable j;
    ``lower`` holds per-column lower bounds and ``epsilon`` the threshold of
    the constraint ``sum_j y_j >= epsilon + sum_j lower_j``.  All entries are
    nonnegative exact rationals.  Optional scenario probabilities must sum to
    one exactly.

    The constructor reads every entry once as an integer ratio and keeps
    ``scaled``: the common denominator D of the weights, epsilon and lower
    bounds, with all three scaled by D, ``(D, weights, epsilon, lower)`` in
    integers.  The ``Fraction`` matrix ``weights`` is built from it the
    first time it is read.
    """

    weights: tuple[tuple[Fraction, ...], ...]
    lower: tuple[Fraction, ...]
    epsilon: Fraction
    probabilities: Optional[tuple[Fraction, ...]] = None

    def __init__(
        self,
        weights: Sequence[Sequence[RationalLike]],
        lower: Optional[Sequence[RationalLike]] = None,
        epsilon: RationalLike = 0,
        probabilities: Optional[Sequence[RationalLike]] = None,
    ) -> None:
        rows = [_ratios(row) for row in weights]
        if not rows:
            raise ValidationError("instance needs at least one scenario row")
        k = len(rows[0])
        if k == 0:
            raise ValidationError("instance needs at least one column")
        if any(len(row) != k for row in rows):
            raise ValidationError("ragged coefficient matrix")
        if any(a < 0 for row in rows for a, _ in row):
            raise ValidationError("negative coefficient entry")
        low = _ratios(lower) if lower is not None else [(0, 1)] * k
        if len(low) != k:
            raise ValidationError(f"lower bound vector has length {len(low)}, expected {k}")
        if any(a < 0 for a, _ in low):
            raise ValidationError("negative lower bound")
        eps = parse_rational(epsilon)
        if eps < 0:
            raise ValidationError("negative epsilon")
        probs = None
        if probabilities is not None:
            probs = _fracs(probabilities)
            if len(probs) != len(rows):
                raise ValidationError(
                    f"{len(probs)} probabilities for {len(rows)} scenarios"
                )
            if any(p < 0 for p in probs):
                raise ValidationError("negative probability")
            if sum(probs) != 1:
                raise ValidationError("probabilities do not sum to 1 exactly")
        scale = math.lcm(
            eps.denominator, *{b for row in rows for _, b in row}, *{b for _, b in low}
        )
        object.__setattr__(self, "lower", tuple(Fraction(a, b) for a, b in low))
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "scaled", (
            scale,
            tuple(tuple(a * (scale // b) for a, b in row) for row in rows),
            eps.numerator * (scale // eps.denominator),
            tuple(a * (scale // b) for a, b in low),
        ))

    def __getattr__(self, name: str):
        """Build ``weights`` from ``scaled`` when it is first read; every
        other attribute is found without this hook or does not exist."""
        if name != "weights":
            raise AttributeError(name)
        scale, rows = self.scaled[:2]
        view = tuple(tuple(Fraction(v, scale) for v in row) for row in rows)
        object.__setattr__(self, "weights", view)
        return view

    @property
    def n(self) -> int:
        return len(self.scaled[1])

    @property
    def k(self) -> int:
        return len(self.scaled[1][0])

    @cached_property
    def lower_is_zero(self) -> bool:
        """Whether every lower bound is 0, computed once."""
        return not any(self.scaled[3])

    @cached_property
    def peaks(self) -> tuple[int, ...]:
        """Column maxima of the scaled weights (``scaled[1]``), computed once."""
        return tuple(map(max, zip(*self.scaled[1])))

    def row_cut(
        self, y: tuple[int, ...], z: Sequence[int], rhs: int, kind: CutKind
    ) -> LinearCut:
        """The cut ``y . y + z . z >= rhs`` of an integer row over the
        instance's denominator D (``scaled[0]``): every mixing, aggregated
        and linking cut the library builds is assembled here.

        Each distinct integer becomes a ``Fraction`` over D once per
        instance and is shared by all of the instance's cuts (0 is ``ZERO``
        and D is ``ONE``), and so is each distinct y tuple.  The row is
        trusted, not parsed: it has k and n entries, all integers.
        """
        memo = self.__dict__.get("_row_values")
        if memo is None:
            memo = self.__dict__["_row_values"] = ({0: ZERO, self.scaled[0]: ONE}, {})
        values, y_tuples = memo
        try:
            z_coeffs = tuple(map(values.__getitem__, z))
            rhs_value = values[rhs]
            y_coeffs = y_tuples[y]
        except KeyError:  # a value or a y tuple first met: make it, once
            scale = self.scaled[0]
            for v in {*y, *z, rhs}.difference(values):
                values[v] = Fraction(v, scale)
            z_coeffs = tuple(map(values.__getitem__, z))
            rhs_value = values[rhs]
            y_coeffs = y_tuples.setdefault(y, tuple(map(values.__getitem__, y)))
        cut = object.__new__(LinearCut)
        object.__setattr__(cut, "y_coeffs", y_coeffs)
        object.__setattr__(cut, "z_coeffs", z_coeffs)
        object.__setattr__(cut, "rhs", rhs_value)
        object.__setattr__(cut, "kind", kind)
        return cut


@dataclass(frozen=True)
class SequenceTheta:
    """An ordered sequence of distinct scenario indices (0-based), each an
    ``int`` (not a bool, a float or a string), as :func:`parse_count` takes
    a dimension."""

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]) -> None:
        idx = tuple(indices)
        wrong = [i for i in idx if type(i) is not int]
        if wrong:
            raise InvalidSequence(f"sequence index not an int: {wrong[0]!r}")
        if not idx:
            raise InvalidSequence("sequence must be nonempty")
        if len(set(idx)) != len(idx):
            raise InvalidSequence(f"repeated index in sequence {idx}")
        if any(i < 0 for i in idx):
            raise InvalidSequence(f"negative index in sequence {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    @property
    def last(self) -> int:
        return self.indices[-1]

    def validate_for(self, n: int) -> None:
        if any(i >= n for i in self.indices):
            raise InvalidSequence(f"sequence {self.indices} exceeds ground set [{n}]")


# ---------------------------------------------------------------------------
# Instance documents.  JSON with all numbers carried as exact strings; plain
# JSON integers are also accepted on input.
# ---------------------------------------------------------------------------


def loads_instance(text: str) -> MixingInstance:
    """Parse an instance document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    try:
        n, k, w_rows = parse_count(doc["n"]), parse_count(doc["k"]), doc["W"]
    except KeyError as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if not isinstance(w_rows, list) or any(not isinstance(r, list) for r in w_rows):
        raise ParseError("W must be a list of rows")
    if len(w_rows) != n or any(len(r) != k for r in w_rows):
        raise ValidationError(f"W shape disagrees with n={n}, k={k}")
    lower = doc.get("lower")
    epsilon = doc.get("epsilon", "0")
    probabilities = doc.get("probabilities")
    return MixingInstance(w_rows, lower, epsilon, probabilities)


def parse_count(value: Union[int, str]) -> int:
    """A dimension field: an int or an integer string; a bool, any other
    number or anything else is a :class:`ParseError`."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError as exc:
            raise ParseError(f"missing or malformed field: {exc}") from exc
    raise ParseError(f"missing or malformed field: not an integer: {value!r}")


def read_text(path: str) -> str:
    """The contents of a text file; an unreadable file is a :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write a text file; an unwritable path is a :class:`ParseError`, like
    an unreadable one in :func:`read_text`."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc}") from exc


def load_instance(path_or_text: str) -> MixingInstance:
    """Load an instance from a file path, or directly from JSON text."""
    if path_or_text.lstrip().startswith("{"):
        return loads_instance(path_or_text)
    return loads_instance(read_text(path_or_text))


def serialize_instance(inst: MixingInstance) -> str:
    """Render an instance back to its canonical document form."""
    doc: dict = {
        "n": inst.n,
        "k": inst.k,
        "W": [[format_rational(w) for w in row] for row in inst.weights],
        "lower": [format_rational(l) for l in inst.lower],
        "epsilon": format_rational(inst.epsilon),
    }
    if inst.probabilities is not None:
        doc["probabilities"] = [format_rational(p) for p in inst.probabilities]
    return json.dumps(doc, indent=2) + "\n"


def loads_point(text: str, k: int, n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Parse a point document {"y": [...], "z": [...]} and check dimensions."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "y" not in doc or "z" not in doc:
        raise ParseError("point document must be an object with fields 'y' and 'z'")
    y = _fracs(doc["y"])
    z = _fracs(doc["z"])
    if len(y) != k or len(z) != n:
        raise DimensionMismatch(
            f"point is {len(y)}+{len(z)} dimensional, instance needs {k}+{n}"
        )
    return y, z


def _ratio(v: RationalLike) -> tuple[int, int]:
    """One rational that is not an int or a Fraction as ``(numerator,
    denominator)`` in lowest terms: a string of ASCII digits, or two such
    strings around one '/', read by ``int()`` (up to 640 characters, the
    least digit limit ``int()`` may be set to), anything else parsed by
    :func:`parse_rational`, whose errors these share."""
    if type(v) is str and v.isascii() and len(v) <= 640:
        num, slash, den = v.partition("/")
        if num.isdigit() and not slash:
            return int(num), 1
        if num.isdigit() and den.isdigit():
            a, b = int(num), int(den)
            if not b:
                raise ParseError(f"not a rational: {v!r}")
            g = math.gcd(a, b)
            return a // g, b // g
    return parse_rational(v).as_integer_ratio()


def _ratios(values: Sequence[RationalLike]) -> list[tuple[int, int]]:
    """Each entry of a list or tuple of rationals as ``(numerator,
    denominator)``: a Fraction or an int read as it is, anything else by
    :func:`_ratio`; not a list or tuple is a :class:`ParseError`."""
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"not a list of rationals: {values!r}")
    return [
        v.as_integer_ratio() if type(v) is Fraction or type(v) is int else _ratio(v)
        for v in values
    ]


def integer_point(
    inst: MixingInstance, y_bar: Sequence[RationalLike], z_bar: Sequence[RationalLike]
) -> tuple[int, list[int], list[int]]:
    """Parse, check and scale a point (y, z) of the instance's space in one
    pass: ``(p, p * y, p * z)`` in integers, p the common denominator of
    the point.  It raises, in this order: a :class:`ParseError` for an
    unparsable y, then z, a :class:`DimensionMismatch`, then a
    :class:`DomainError` for z outside the unit box."""
    y, z = _ratios(y_bar), _ratios(z_bar)
    if len(y) != inst.k or len(z) != inst.n:
        raise DimensionMismatch("point dimensions disagree with instance")
    p = math.lcm(*{d for _, d in y}, *{d for _, d in z})
    z_p = [a * (p // b) for a, b in z]
    if min(z_p) < 0 or max(z_p) > p:
        raise DomainError("z outside the unit box")
    return p, [a * (p // b) for a, b in y], z_p


def unscale(values: Iterable[int], scale: int) -> list[Fraction]:
    """Integers over the denominator ``scale`` as Fractions, every zero the
    shared ``ZERO``."""
    return [Fraction(v, scale) if v else ZERO for v in values]


def indicator_target(point: tuple) -> tuple[list[int], int]:
    """A point ``(p, p * y, p * z)`` scaled by :func:`integer_point` as the
    membership target (1 - z, 1, y) over p: ``(target, p)``."""
    p, y, z = point
    return [p - v for v in z] + [p] + y, p

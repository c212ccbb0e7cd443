"""Exact scalars, instance model, cut representation and instance I/O.

Every number in this library is a :class:`fractions.Fraction`.  There are no
tolerance parameters anywhere: cut generation, separation and hull membership
are decided by exact comparisons, so two runs on the same input are
bit-identical.
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
    """Raised for malformed instance/point documents."""

    exit_code = 1


class ValidationError(MixcutsError):
    """Raised when a parsed document violates an instance invariant."""


class AllZeroCut(MixcutsError):
    """Raised when canonicalizing a cut with no nonzero coefficient or rhs."""


class DimensionMismatch(MixcutsError):
    """Raised when vector/matrix dimensions disagree."""


class GroundSetTooLarge(MixcutsError):
    """Raised when an exhaustive operation is asked to enumerate too much."""


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


def _fracs(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in values)


_ZERO = Fraction(0)


def _coeffs(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """Like :func:`_fracs`, with every zero the one shared ``Fraction(0)``."""
    return tuple(v if v else _ZERO for v in map(parse_rational, values))


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
        object.__setattr__(self, "rhs", parse_rational(rhs))
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

    def satisfied_by(self, y: Sequence[Fraction], z: Sequence[Fraction]) -> bool:
        return self.lhs(y, z) >= self.rhs

    def canonical_key(self) -> tuple[int, ...]:
        """Integer coefficient vector (alpha, beta, gamma) of the canonical form."""
        entries = list(self.y_coeffs) + list(self.z_coeffs) + [self.rhs]
        scale = math.lcm(*(e.denominator for e in entries))
        ints = [int(e * scale) for e in entries]
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
        k = self.k
        alpha = " ".join(str(v) for v in ints[:k])
        beta = " ".join(str(v) for v in ints[k : k + self.n])
        return f"{alpha} | {beta} | >= {ints[-1]} | {self.kind.value}"


@dataclass(frozen=True)
class MixingInstance:
    """Scenario data (coefficient matrix, lower bounds, linking threshold).

    ``weights[i][j]`` couples binary indicator i with continuous variable j;
    ``lower`` holds per-column lower bounds and ``epsilon`` the threshold of
    the constraint ``sum_j y_j >= epsilon + sum_j lower_j``.  All entries are
    nonnegative exact rationals.  Optional scenario probabilities must sum to
    one exactly.
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
        rows = tuple(_fracs(row) for row in weights)
        if not rows:
            raise ValidationError("instance needs at least one scenario row")
        k = len(rows[0])
        if k == 0:
            raise ValidationError("instance needs at least one column")
        if any(len(row) != k for row in rows):
            raise ValidationError("ragged coefficient matrix")
        if any(w < 0 for row in rows for w in row):
            raise ValidationError("negative coefficient entry")
        low = _fracs(lower) if lower is not None else tuple(Fraction(0) for _ in range(k))
        if len(low) != k:
            raise ValidationError(f"lower bound vector has length {len(low)}, expected {k}")
        if any(l < 0 for l in low):
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
        object.__setattr__(self, "weights", rows)
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "probabilities", probs)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def k(self) -> int:
        return len(self.weights[0])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.weights)

    def column_max(self, j: int) -> Fraction:
        return max(self.column(j))

    def row_sum(self, i: int) -> Fraction:
        return sum(self.weights[i], Fraction(0))

    @property
    def lower_is_zero(self) -> bool:
        return all(l == 0 for l in self.lower)

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...], int]:
        """Common denominator D of the weights and epsilon, with both scaled
        by D: ``(D, weights, epsilon)`` in integers, computed once."""
        scale = math.lcm(
            self.epsilon.denominator,
            *(w.denominator for row in self.weights for w in row),
        )
        weights = tuple(
            tuple(w.numerator * (scale // w.denominator) for w in row)
            for row in self.weights
        )
        eps = self.epsilon.numerator * (scale // self.epsilon.denominator)
        return scale, weights, eps


@dataclass(frozen=True)
class SequenceTheta:
    """An ordered sequence of distinct scenario indices (0-based)."""

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]) -> None:
        idx = tuple(int(i) for i in indices)
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
        n = int(doc["n"])
        k = int(doc["k"])
        w_rows = doc["W"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if not isinstance(w_rows, list) or any(not isinstance(r, list) for r in w_rows):
        raise ParseError("W must be a list of rows")
    if len(w_rows) != n or any(len(r) != k for r in w_rows):
        raise ValidationError(f"W shape disagrees with n={n}, k={k}")
    lower = doc.get("lower")
    epsilon = doc.get("epsilon", "0")
    probabilities = doc.get("probabilities")
    return MixingInstance(w_rows, lower, epsilon, probabilities)


def read_text(path: str) -> str:
    """The contents of a text file; an unreadable file is a :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


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


def check_point(
    inst: MixingInstance, y_bar: Sequence[RationalLike], z_bar: Sequence[RationalLike]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Parse a point (y, z) of the instance's space and check that z lies in
    the unit box."""
    y, z = _fracs(y_bar), _fracs(z_bar)
    if len(y) != inst.k or len(z) != inst.n:
        raise DimensionMismatch("point dimensions disagree with instance")
    if any(v < 0 or v > 1 for v in z):
        raise DomainError("z outside the unit box")
    return y, z


def complement(z: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Map z to 1 - z componentwise (the switch between the two variable views)."""
    return tuple(Fraction(1) - parse_rational(v) for v in z)

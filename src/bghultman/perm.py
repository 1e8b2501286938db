"""Unsigned and signed permutations.

A signed permutation of n elements stores, for each position 1..n, a signed
image whose absolute values form a bijection of {1..n}.  Unsigned
permutations are the all-positive special case of the same type.  The module
provides validation, group operations, deterministic (lexicographic)
enumeration streams, the size checks, and a brute-force counter of cycle
factorisations used as a test oracle.  No census splits the streams by first
image any more; ``first_values`` and the ``first`` argument of
``iter_images_*`` stay only because ``perfbench/layers.py`` times them.

The size checks sit here because perm imports no other module of the
package, so every module can import them.  ``check_nonnegative`` is the one
check for a negative size: the counts, moments and bounds are defined for
sizes >= 0, every size check in the library is a call to it, and so each
rejection reads "<name> must be >= 0, got <value>".  ``check_size`` is the
one size guard: it calls that check, then refuses a size above the guard of
an exhaustive run unless forced.  ``group_order`` is the one count of the
group, n! or 2^n * n!, behind the same check.  ``lookup`` is the one check
for an unknown name: every table the library reads by name (generator
sets, metrics, cycle weights) is read through it, so each rejection reads
"unknown <what> <name>".

``Record`` sits here for the same reason.  It is the one equality rule of
the value records (``SignedPermutation``, ``exactmath.Polynomial``,
``hultman.HookPartition``, ``hultman.MomentPair`` and
``census.DistributionTable``): two records are equal when they are of the
same class and their fields, the names in the class's ``__slots__``, are
equal; equal records hash equal, and the repr names each field.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

__all__ = [
    "PermutationError",
    "GuardError",
    "Record",
    "SignedPermutation",
    "validate",
    "identity",
    "compose",
    "inverse",
    "iter_images_unsigned",
    "iter_images_signed",
    "first_values",
    "enumerate_unsigned",
    "enumerate_signed",
    "count_factorizations",
    "check_nonnegative",
    "check_size",
    "group_order",
    "lookup",
    "format_permutation",
    "UNSIGNED_ENUMERATION_GUARD",
    "SIGNED_ENUMERATION_GUARD",
    "FACTORIZATION_GUARD",
]

UNSIGNED_ENUMERATION_GUARD = 12
SIGNED_ENUMERATION_GUARD = 9
FACTORIZATION_GUARD = 7


class PermutationError(ValueError):
    """Invalid permutation data or mismatched operands."""


class GuardError(RuntimeError):
    """An exhaustive enumeration was requested above its size guard.

    Pass force=True (``--force`` on the command line) to run anyway; guards
    exist to catch accidental factorial blowups, not to forbid large runs.
    """


def check_nonnegative(value: int, name: str = "n") -> None:
    """Reject a negative size; every size check in the library is this call."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_size(n: int, guard: int, force: bool, what: str) -> None:
    """Reject a negative size, and a size above ``guard`` unless ``force``."""
    check_nonnegative(n)
    if n > guard and not force:
        raise GuardError(
            f"size {n} exceeds the {what} guard ({guard}); "
            "pass --force (command line) or force=True (library) to run anyway"
        )


def group_order(n: int, signed: bool) -> int:
    """n! for the unsigned group, 2^n * n! for the signed one."""
    check_nonnegative(n)
    return factorial(n) << n * signed


_Row = TypeVar("_Row")


def lookup(table: Mapping[str, _Row], name: str, what: str) -> _Row:
    """``table[name]``; every check for an unknown name is this call."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    return table[name]


class Record:
    """Base of the value records: equality, hash and repr from ``__slots__``.

    A subclass lists its fields in ``__slots__``; one holding a dict sets
    ``__hash__ = None``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SignedPermutation(Record):
    """Permutation of {1..n} with per-element signs, as a tuple of images.

    ``validate`` checks the images.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        self.images = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return format_permutation(self)


def validate(images: Iterable[int]) -> SignedPermutation:
    """Check the bijection invariants and build a permutation.

    Raises PermutationError naming the first offending position.
    """
    imgs = tuple(images)
    n = len(imgs)
    seen = [False] * (n + 1)
    for pos, v in enumerate(imgs, start=1):
        if v == 0:
            raise PermutationError(f"position {pos}: image 0 is not allowed")
        a = abs(v)
        if a > n:
            raise PermutationError(f"position {pos}: |{v}| outside 1..{n}")
        if seen[a]:
            raise PermutationError(f"position {pos}: duplicate absolute value {a}")
        seen[a] = True
    return SignedPermutation(imgs)


def identity(n: int) -> SignedPermutation:
    check_nonnegative(n)
    return SignedPermutation(tuple(range(1, n + 1)))


def compose(sigma: SignedPermutation, pi: SignedPermutation) -> SignedPermutation:
    """sigma applied after pi (composition right to left)."""
    if sigma.n != pi.n:
        raise PermutationError(f"size mismatch: {sigma.n} vs {pi.n}")
    s = sigma.images
    out = []
    for v in pi.images:
        w = s[v - 1] if v > 0 else -s[-v - 1]
        out.append(w)
    return SignedPermutation(tuple(out))


def inverse(pi: SignedPermutation) -> SignedPermutation:
    out = [0] * pi.n
    for pos, v in enumerate(pi.images, start=1):
        if v > 0:
            out[v - 1] = pos
        else:
            out[-v - 1] = -pos
    return SignedPermutation(tuple(out))


def _cycles(images: Sequence[int]) -> Iterator[tuple[int, ...]]:
    # Canonical cycles of an unsigned image tuple: each starts at its
    # minimum, and they come in ascending order of minimum.
    seen = [False] * (len(images) + 1)
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = images[j - 1]
        yield tuple(cyc)


def iter_images_unsigned(n: int, first: int | None = None) -> Iterator[tuple[int, ...]]:
    """Raw lexicographic stream of unsigned image tuples.

    With ``first`` given, only permutations starting with that image are
    produced; the full stream is the concatenation over first = 1..n.
    """
    check_nonnegative(n)
    if first is None:
        return itertools.permutations(range(1, n + 1))
    if not 1 <= first <= n:
        raise PermutationError(f"first image {first} outside range for n={n}")
    rest = [v for v in range(1, n + 1) if v != first]
    return ((first,) + tail for tail in itertools.permutations(rest))


def iter_images_signed(n: int, first: int | None = None) -> Iterator[tuple[int, ...]]:
    """Raw lexicographic stream of signed image tuples."""
    check_nonnegative(n)
    if first is not None and not 1 <= abs(first) <= n:
        raise PermutationError(f"first image {first} outside range for n={n}")
    values = list(range(-n, 0)) + list(range(1, n + 1))
    used = [False] * (n + 1)
    acc = [0] * n

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(acc)
            return
        for v in values:
            a = v if v > 0 else -v
            if used[a]:
                continue
            used[a] = True
            acc[pos] = v
            yield from rec(pos + 1)
            used[a] = False

    if first is None:
        return rec(0)
    used[abs(first)] = True
    acc[0] = first
    return rec(1)


def first_values(n: int, signed: bool) -> tuple[int, ...]:
    """First-image values splitting the enumeration into disjoint ranges."""
    check_nonnegative(n)
    if signed:
        return tuple(range(-n, 0)) + tuple(range(1, n + 1))
    return tuple(range(1, n + 1))


def enumerate_unsigned(n: int, force: bool = False) -> Iterator[SignedPermutation]:
    """All n! unsigned permutations in lexicographic image order."""
    check_size(n, UNSIGNED_ENUMERATION_GUARD, force, "unsigned enumeration")
    return (SignedPermutation(t) for t in iter_images_unsigned(n))


def enumerate_signed(n: int, force: bool = False) -> Iterator[SignedPermutation]:
    """All 2^n * n! signed permutations in lexicographic image order."""
    check_size(n, SIGNED_ENUMERATION_GUARD, force, "signed enumeration")
    return (SignedPermutation(t) for t in iter_images_signed(n))


def count_factorizations(n: int, k: int, force: bool = False) -> int:
    """Count factorisations of the fixed (n+1)-cycle (1 2 ... n+1).

    Counts permutations omega of n+1 elements with k disjoint cycles such
    that beta = rho o omega for some (n+1)-cycle rho, i.e. beta o omega^{-1}
    is a single (n+1)-cycle.  Brute force over all (n+1)! candidates; the
    result equals the count of unsigned permutations of n elements whose
    breakpoint graph has k alternating cycles.
    """
    check_size(n, FACTORIZATION_GUARD, force, "factorisation")
    if not 1 <= k <= n + 1:
        raise ValueError(f"k={k} outside 1..{n + 1}")
    beta = tuple(range(2, n + 2)) + (1,)
    count = 0
    rho = [0] * (n + 1)
    for omega in itertools.permutations(range(1, n + 2)):
        if sum(1 for _ in _cycles(omega)) != k:
            continue
        # rho = beta o omega^{-1} without materialising the inverse:
        # omega(i) = w implies rho(w) = beta(i).
        for i, w in enumerate(omega):
            rho[w - 1] = beta[i]
        if len(next(_cycles(rho))) == n + 1:  # one cycle covers all
            count += 1
    return count


def format_permutation(pi: SignedPermutation) -> str:
    return " ".join(str(v) for v in pi.images)

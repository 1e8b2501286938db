"""Unsigned and signed permutations.

A signed permutation of n elements stores, for each position 1..n, a signed
image whose absolute values form a bijection of {1..n}.  Unsigned
permutations are the all-positive special case of the same type.  The module
provides validation, group operations, deterministic (lexicographic)
enumeration streams, the one size guard, and a brute-force counter of cycle
factorisations used as a test oracle.  No census splits the streams by first
image any more; ``first_values`` and the ``first`` argument of
``iter_images_*`` stay only because ``perfbench/layers.py`` times them.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

__all__ = [
    "PermutationError",
    "GuardError",
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
    "check_size",
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


def check_size(n: int, guard: int, force: bool, what: str) -> None:
    """Reject a negative size, and a size above ``guard`` unless ``force``."""
    if n < 0:
        raise ValueError(f"size must be >= 0, got {n}")
    if n > guard and not force:
        raise GuardError(
            f"size {n} exceeds the {what} guard ({guard}); "
            "pass --force (command line) or force=True (library) to run anyway"
        )


class SignedPermutation:
    """Permutation of {1..n} with per-element signs, as a tuple of images.

    Equal permutations compare and hash equal; ``validate`` checks the images.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]) -> None:
        self.images = images

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

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


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")


def identity(n: int) -> SignedPermutation:
    _check_n(n)
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
    _check_n(n)
    if first is None:
        yield from itertools.permutations(range(1, n + 1))
        return
    if not 1 <= first <= n:
        raise PermutationError(f"first image {first} outside range for n={n}")
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(rest):
        yield (first,) + tail


def iter_images_signed(n: int, first: int | None = None) -> Iterator[tuple[int, ...]]:
    """Raw lexicographic stream of signed image tuples."""
    _check_n(n)
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
        yield from rec(0)
    else:
        used[abs(first)] = True
        acc[0] = first
        yield from rec(1)


def first_values(n: int, signed: bool) -> tuple[int, ...]:
    """First-image values splitting the enumeration into disjoint ranges."""
    _check_n(n)
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
    if not 1 <= k <= n + 1:
        raise ValueError(f"k={k} outside 1..{n + 1}")
    check_size(n, FACTORIZATION_GUARD, force, "factorisation")
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

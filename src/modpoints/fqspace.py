"""The 6-dimensional quadratic space over GF(2) with form u + u + u.

Vectors are integers 0..63; bit i holds coordinate i+1, so the hyperbolic
pairs are bits (0,1), (2,3), (4,5) and q(v) = v1*v2 + v3*v4 + v5*v6.
Censuses by q-value, orthogonal complements of isotropic vectors and the
transvections attached to non-isotropic vectors live here.  Group
elements are permutations of the 64 vectors stored as bytes, so
composition is one ``bytes.translate``.  G = S_8, Kondo's relabelling of
the 8 points, is generated here by one set: the transvections of an A7
path of seven vectors, whose Coxeter presentation gives the order 8!
without listing the group.  ``orbits_under`` walks G's orbits, and the
orbits of Stab(h) are read off the G-orbits of pairs (h, x).  Nothing is
remembered between calls: the functions that read G take its generators,
and the order or orbit they need, as arguments, so that a caller
(``checks.Quantities``, once per run) searches for the path and walks the
orbits once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import combinations_with_replacement

DIMENSION = 6
SIZE = 1 << DIMENSION

IDENTITY = bytes(range(SIZE))
_PAD = bytes(256 - SIZE)  # fills a permutation out to a translate table


_Q = bytes(
    ((v >> 0) & (v >> 1) & 1) ^ ((v >> 2) & (v >> 3) & 1) ^ ((v >> 4) & (v >> 5) & 1)
    for v in range(SIZE)
)


def q(v: int) -> int:
    """The quadratic form: sum of products over the three hyperbolic pairs.

    A lookup in a table of the 64 values; v must lie in 0..63.
    """
    return _Q[v]


def b(u: int, v: int) -> int:
    """Polarization of q: b(u, v) = q(u+v) + q(u) + q(v)."""
    return q(u ^ v) ^ q(u) ^ q(v)


def isotropic_vectors() -> tuple[int, ...]:
    return tuple(v for v in range(1, SIZE) if q(v) == 0)


def nonisotropic_vectors() -> tuple[int, ...]:
    return tuple(v for v in range(1, SIZE) if q(v) == 1)


def census() -> tuple[int, int, int]:
    """(zero, isotropic nonzero, non-isotropic) counts, by enumeration."""
    isotropic = len(isotropic_vectors())
    return 1, isotropic, SIZE - 1 - isotropic


def _perp(h: int) -> tuple[list[int], list[int]]:
    """The isotropic and the non-isotropic nonzero vectors of h-perp."""
    if not 0 < h < SIZE:
        raise ValueError(f"h must be a nonzero vector below {SIZE}")
    if q(h) != 0:
        raise ValueError("h must be isotropic")
    perp = [v for v in range(1, SIZE) if b(v, h) == 0]
    return [v for v in perp if q(v) == 0], [v for v in perp if q(v) == 1]


def perp_census(h: int) -> tuple[int, int]:
    """(isotropic, non-isotropic) counts among nonzero vectors of h-perp."""
    isotropic, nonisotropic = _perp(h)
    return len(isotropic), len(nonisotropic)


def _compose(p: bytes, g: bytes) -> bytes:
    """p after g: the permutation v -> p[g[v]]."""
    return g.translate(p + _PAD)


def reflection(v: int) -> bytes:
    """The transvection x -> x + b(x, v) v for a non-isotropic v, as a permutation.

    It is an involution fixing v (since b(v, v) = 0) and preserves q;
    that it permutes the 64 vectors and preserves q is checked
    exhaustively on construction.
    """
    if not 0 < v < SIZE:
        raise ValueError("v must be a nonzero vector")
    if q(v) != 1:
        raise ValueError("reflections require a non-isotropic vector")
    perm = bytes(x ^ (v if b(x, v) else 0) for x in range(SIZE))
    if set(perm) != set(range(SIZE)):
        raise AssertionError("transvection is not a permutation of the 64 vectors")
    if any(q(perm[x]) != q(x) for x in range(SIZE)):
        raise AssertionError("transvection failed to preserve the form")
    return perm


def _a7_path(path: tuple[int, ...] = ()) -> tuple[int, ...]:
    """The first path of 7 non-isotropic vectors, depth-first in ascending
    order: b(v_i, v_j) = 1 exactly when |i - j| = 1.  Empty when none exists."""
    if len(path) == 7:
        return path
    for v in nonisotropic_vectors():
        if v not in path and all(b(v, u) == (k == len(path) - 1) for k, u in enumerate(path)):
            found = _a7_path(path + (v,))
            if found:
                return found
    return ()


def coxeter_generators() -> tuple[bytes, ...]:
    """The transvections s_1..s_7 of the A7 path.  AssertionError unless
    (s_i s_j)^m = 1 with m = 1, 3 or 2 as j - i is 0, 1 or more (the A7
    Coxeter matrix), and unless they are transitive on the 28 non-isotropic
    vectors.  Each call searches and checks anew."""
    path = _a7_path()
    s = tuple(map(reflection, path))
    for i, j in combinations_with_replacement(range(len(s)), 2):
        m = 1 if i == j else 3 if j == i + 1 else 2
        if reduce(_compose, (s[i], s[j]) * m) != IDENTITY:
            raise AssertionError(f"(s{i + 1} s{j + 1})^{m} = 1 fails on the path {path}")
    if len(orbits_under(s, nonisotropic_vectors())) != 1:
        raise AssertionError("the path transvections are not transitive on the non-isotropic vectors")
    return s


def group_order(generators: Sequence[bytes]) -> int:
    """The order of the group G the 28 reflections generate, given the
    ``coxeter_generators`` s_1..s_7: 8! = 40320.

    Proof.  The s_i satisfy the A7 relations, S_8's presentation by
    adjacent transpositions, so H = <s_1..s_7> is a quotient of S_8.  Its
    kernel is 1, A_8 or S_8, and the last two would give s_1 s_2 = 1,
    checked false here; so H is S_8.  H is transitive on the 28
    non-isotropic vectors and g t_v g^-1 = t_{gv} for every isometry g, so
    H holds all 28 reflections: H = G.
    """
    if _compose(generators[0], generators[1]) == IDENTITY:
        raise AssertionError("s1 s2 = 1: the path transvections generate a group of order at most 2")
    return math.factorial(len(generators) + 1)


def orbits_under(elements: Iterable[bytes], points: Iterable[int]) -> list[frozenset]:
    """The orbits through ``points`` of the group that ``elements`` generate,
    in order of their least point in ``points``; each is walked breadth-first."""
    elements = tuple(elements)
    remaining = set(points)
    out = []
    while remaining:
        walk = [min(remaining)]
        block = set(walk)
        for x in walk:  # the walk grows as it is read, so it is breadth-first
            for y in (g[x] for g in elements):
                if y not in block:
                    block.add(y)
                    walk.append(y)
        out.append(frozenset(block))
        remaining -= block
    return out


def _stab_orbits(generators: Sequence[bytes], h: int, points: Iterable[int]) -> list[frozenset]:
    """The orbits of Stab(h) through ``points``, in order of their least point:
    x and y share one exactly when (h, y) lies in the G-orbit of (h, x), walked
    with ``generators`` moving both entries and read off at h."""
    remaining = set(points)
    out = []
    while remaining:
        walk = [(h, min(remaining))]
        seen = set(walk)
        for u, x in walk:  # breadth-first, as in ``orbits_under``
            for g in generators:
                pair = (g[u], g[x])
                if pair not in seen:
                    seen.add(pair)
                    walk.append(pair)
        out.append(frozenset(x for u, x in walk if u == h))
        remaining -= out[-1]
    return out


def stab_orbit_summary(generators: Sequence[bytes], h: int, order: int, orbit: frozenset) -> dict[str, int]:
    """Orbit counts of Stab(h) on the isotropic and non-isotropic parts of
    h-perp, and its order, where G is the group ``generators`` generate,
    ``order`` is |G| and ``orbit`` is the G-orbit of h.

    The orbits are read off the G-orbits of pairs (h, x), and the order is
    |G| / |orbit of h| by orbit-stabilizer.
    """
    iso_perp, noniso_perp = _perp(h)  # validates h
    return {
        "isotropic_orbits": len(_stab_orbits(generators, h, iso_perp)),
        "nonisotropic_orbits": len(_stab_orbits(generators, h, noniso_perp)),
        "stabilizer_order": order // len(orbit),
    }

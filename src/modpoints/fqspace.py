"""The 6-dimensional quadratic space over GF(2) with form u + u + u.

Vectors are integers 0..63; bit i holds coordinate i+1, so the hyperbolic
pairs are bits (0,1), (2,3), (4,5) and q(v) = v1*v2 + v3*v4 + v5*v6.
Censuses by q-value, orthogonal complements of isotropic vectors and the
28 transvections attached to non-isotropic vectors live here.  Group
elements are permutations of the 64 vectors stored as bytes, so
composition is one ``bytes.translate``.  The reflections generate S_8,
Kondo's relabelling of the 8 points: the transvections of an A7 path of
seven vectors satisfy its Coxeter presentation, which gives the order 8!
without listing the group, and Schreier's lemma gives Stab(h);
``orbits_under`` walks the orbits of either.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Sequence, Tuple

DIMENSION = 6
SIZE = 64

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


def isotropic_vectors() -> Tuple[int, ...]:
    return tuple(v for v in range(1, SIZE) if q(v) == 0)


def nonisotropic_vectors() -> Tuple[int, ...]:
    return tuple(v for v in range(1, SIZE) if q(v) == 1)


def census() -> Tuple[int, int, int]:
    """(zero, isotropic nonzero, non-isotropic) counts, by enumeration."""
    isotropic = len(isotropic_vectors())
    return 1, isotropic, SIZE - 1 - isotropic


def _perp(h: int) -> Tuple[List[int], List[int]]:
    """The isotropic and the non-isotropic nonzero vectors of h-perp."""
    if not 0 < h < SIZE:
        raise ValueError(f"h must be a nonzero vector below {SIZE}")
    if q(h) != 0:
        raise ValueError("h must be isotropic")
    perp = [v for v in range(1, SIZE) if b(v, h) == 0]
    return [v for v in perp if q(v) == 0], [v for v in perp if q(v) == 1]


def perp_census(h: int) -> Tuple[int, int]:
    """(isotropic, non-isotropic) counts among nonzero vectors of h-perp."""
    isotropic, nonisotropic = _perp(h)
    return len(isotropic), len(nonisotropic)


def _compose(p: bytes, g: bytes) -> bytes:
    """p after g: the permutation v -> p[g[v]]."""
    return g.translate(p + _PAD)


def _inverse(p: bytes) -> bytes:
    return bytes(sorted(range(SIZE), key=p.__getitem__))


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


@lru_cache(maxsize=1)
def reflections() -> Tuple[bytes, ...]:
    """The 28 transvections, in ascending order of their vectors."""
    return tuple(map(reflection, nonisotropic_vectors()))


def _transversal(point: int, generators: Sequence[bytes]) -> Dict[int, bytes]:
    """Map each y in the orbit of ``point`` to an element carrying y to ``point``."""
    inverses = [_inverse(g) for g in generators]
    reps = {point: IDENTITY}
    frontier = [point]
    while frontier:
        nxt = []
        for y in frontier:
            for g, g_inv in zip(generators, inverses):
                z = g[y]
                if z not in reps:
                    reps[z] = _compose(reps[y], g_inv)
                    nxt.append(z)
        frontier = nxt
    return reps


def _a7_path(path: Tuple[int, ...] = ()) -> Tuple[int, ...]:
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


@lru_cache(maxsize=1)
def coxeter_generators() -> Tuple[bytes, ...]:
    """The transvections s_1..s_7 of the A7 path.  AssertionError unless
    (s_i s_j)^m = 1 with m = 1, 3 or 2 as j - i is 0, 1 or more (the A7
    Coxeter matrix), and unless they are transitive on the 28 non-isotropic
    vectors."""
    path = _a7_path()
    s = tuple(map(reflection, path))
    for i, j in combinations_with_replacement(range(len(s)), 2):
        m = 1 if i == j else 3 if j == i + 1 else 2
        if reduce(_compose, (s[i], s[j]) * m) != IDENTITY:
            raise AssertionError(f"(s{i + 1} s{j + 1})^{m} = 1 fails on the path {path}")
    if len(orbits_under(s, nonisotropic_vectors())) != 1:
        raise AssertionError("the path transvections are not transitive on the non-isotropic vectors")
    return s


def group_order() -> int:
    """The order of the group G the 28 reflections generate: 8! = 40320.

    Proof.  ``coxeter_generators`` satisfy the A7 relations, S_8's
    presentation by adjacent transpositions, so H = <s_1..s_7> is a
    quotient of S_8.  Its kernel is 1, A_8 or S_8, and the last two would
    give s_1 s_2 = 1, checked false here; so H is S_8.  H is transitive on
    the 28 non-isotropic vectors and g t_v g^-1 = t_{gv} for every isometry
    g, so H holds all 28 reflections: H = G.
    """
    s = coxeter_generators()
    if _compose(s[0], s[1]) == IDENTITY:
        raise AssertionError("s1 s2 = 1: the path transvections generate a group of order at most 2")
    return math.factorial(len(s) + 1)


def orbits_under(elements: Iterable[bytes], points: Iterable[int]) -> List[frozenset]:
    """The orbits through ``points`` of the group that ``elements`` generate,
    in order of their least point in ``points``; each is walked breadth-first."""
    elements = tuple(elements)
    remaining = set(points)
    out = []
    while remaining:
        start = min(remaining)
        block = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g in elements:
                    y = g[x]
                    if y in block:
                        continue
                    block.add(y)
                    nxt.append(y)
            frontier = nxt
        out.append(frozenset(block))
        remaining -= block
    return out


def _stabilizer_generators(h: int) -> Tuple[int, Tuple[bytes, ...]]:
    """The orbit length of h and Stab(h)'s Schreier generators t(s y) s t(y)^-1,
    each once, for Coxeter generators s and y in the orbit, where t(y), from
    ``_transversal``, carries y to h; they generate Stab(h) (Schreier's lemma)."""
    gens = coxeter_generators()
    reps = _transversal(h, gens)
    inverses = {y: _inverse(t) for y, t in reps.items()}
    schreier = (_compose(reps[s[y]], _compose(s, t_inv)) for y, t_inv in inverses.items() for s in gens)
    return len(reps), tuple(dict.fromkeys(schreier))


def stab_orbit_summary(h: int) -> Dict[str, int]:
    """Orbit counts of Stab(h) on the isotropic and non-isotropic parts of h-perp.

    The orbits are those of the Schreier generators, and the order is
    |G| / |orbit of h| by orbit-stabilizer.
    """
    iso_perp, noniso_perp = _perp(h)  # validates h
    orbit, stab = _stabilizer_generators(h)
    return {
        "isotropic_orbits": len(orbits_under(stab, iso_perp)),
        "nonisotropic_orbits": len(orbits_under(stab, noniso_perp)),
        "stabilizer_order": group_order() // orbit,
    }

"""The 6-dimensional quadratic space over GF(2) with form u + u + u.

Vectors are integers 0..63; bit i holds coordinate i+1, so the hyperbolic
pairs are bits (0,1), (2,3), (4,5) and q(v) = v1*v2 + v3*v4 + v5*v6.
Censuses by q-value, orthogonal complements of isotropic vectors and the
28 transvections attached to non-isotropic vectors live here.  Group
elements are permutations of the 64 vectors stored as bytes, so
composition is one ``bytes.translate``.  The orthogonal group the
reflections generate (order 40320) is read from a deterministic
Schreier-Sims stabilizer chain, which gives the group order and Stab(h)
without listing the group; ``orbits_under`` walks the orbits of either.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .record import Record

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


def _strip(perm: bytes, base, transversals, level: int) -> Tuple[bytes, int]:
    """Sift ``perm`` from ``level`` down: the residue and the level it stopped at.

    The level is ``len(base)`` when every base image was in its basic orbit;
    ``perm`` lies in the group of that level exactly when the residue is the
    identity.
    """
    for depth in range(level, len(base)):
        rep = transversals[depth].get(perm[base[depth]])
        if rep is None:
            return perm, depth
        perm = _compose(rep, perm)
    return perm, len(base)


def _moved_point(perm: bytes) -> int:
    return next(v for v in range(SIZE) if perm[v] != v)


def _first_nontrivial_residue(base, strong, transversals, level: int):
    """The first Schreier generator of ``level`` that does not sift to the identity,
    as its residue and the level where sifting stopped; (None, None) if there is none.

    The Schreier generator of the point y and the strong generator s is
    t(s y)^-1 s t(y), where t(y), the inverse of ``transversals[level][y]``,
    carries the base point to y; sifting s t(y) from ``level`` divides by
    t(s y)^-1 first.
    """
    for rep in transversals[level].values():
        t_y = _inverse(rep)
        for s in strong[level]:
            residue, depth = _strip(_compose(s, t_y), base, transversals, level)
            if residue != IDENTITY:
                return residue, depth
    return None, None


class StabilizerChain(Record):
    """A base and strong generating set of the reflection group.

    Level i belongs to G_i, the pointwise stabilizer of ``base[:i]`` (G_0 is
    the whole group): ``generators[i]`` generate G_i, and ``transversals[i]``
    maps each point y of the basic orbit of ``base[i]`` under G_i to an
    element of G_i that carries y to ``base[i]``.
    """

    base: Tuple[int, ...]
    generators: Tuple[Tuple[bytes, ...], ...]
    transversals: Tuple[Dict[int, bytes], ...]

    @property
    def orbit_sizes(self) -> Tuple[int, ...]:
        return tuple(map(len, self.transversals))

    @property
    def order(self) -> int:
        return math.prod(self.orbit_sizes)

    def contains(self, perm: bytes) -> bool:
        """Does ``perm`` sift to the identity, that is, lie in the group?"""
        return _strip(perm, self.base, self.transversals, 0)[0] == IDENTITY


@lru_cache(maxsize=SIZE)
def stabilizer_chain(h: int) -> StabilizerChain:
    """Deterministic Schreier-Sims on the 28 reflections, with h as first base point.

    Sims' algorithm as in Seress, Permutation Group Algorithms (2003), 4.2:
    working up from the deepest level, every Schreier generator of a level
    is sifted through the levels below it, and a residue other than the
    identity joins the strong generators of each level it passed (a new
    base point, the first point it moves, is added when it passed them
    all).  On return every Schreier generator sifts to the identity, so
    each ``transversals[i]`` is the full basic orbit of G_i.
    """
    if not 0 <= h < SIZE:
        raise ValueError(f"h must be a vector below {SIZE}")
    gens = reflections()
    base = [h]
    for g in gens:
        if all(g[p] == p for p in base):
            base.append(_moved_point(g))
    strong = [[g for g in gens if all(g[p] == p for p in base[:i])] for i in range(len(base))]
    transversals = [_transversal(p, s) for p, s in zip(base, strong)]
    level = len(base) - 1
    while level >= 0:
        residue, depth = _first_nontrivial_residue(base, strong, transversals, level)
        if residue is None:
            level -= 1
            continue
        if depth == len(base):
            base.append(_moved_point(residue))
            strong.append([])
            transversals.append({})
        for j in range(level + 1, depth + 1):
            strong[j].append(residue)
            transversals[j] = _transversal(base[j], strong[j])
        level = depth
    return StabilizerChain(tuple(base), tuple(map(tuple, strong)), tuple(transversals))


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


def stab_orbit_summary(h: int) -> Dict[str, int]:
    """Orbit counts of Stab(h) on the isotropic and non-isotropic parts of h-perp.

    Stab(h) is level 1 of the chain based at h: its order is the product of
    the basic orbits below level 0, and its orbits are those of its strong
    generators.
    """
    iso_perp, noniso_perp = _perp(h)  # validates h
    chain = stabilizer_chain(h)
    return {
        "isotropic_orbits": len(orbits_under(chain.generators[1], iso_perp)),
        "nonisotropic_orbits": len(orbits_under(chain.generators[1], noniso_perp)),
        "stabilizer_order": math.prod(chain.orbit_sizes[1:]),
    }

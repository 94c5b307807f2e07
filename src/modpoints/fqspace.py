"""The 6-dimensional quadratic space over GF(2) with form u + u + u.

Vectors are integers 0..63; bit i holds coordinate i+1, so the hyperbolic
pairs are bits (0,1), (2,3), (4,5) and q(v) = v1*v2 + v3*v4 + v5*v6.
Censuses by q-value, orthogonal complements of isotropic vectors and the
28 transvections attached to non-isotropic vectors live here, with two
independent routes to the orthogonal group they generate (order 40320):
a deterministic Schreier-Sims stabilizer chain, which gives the group
order, Stab(h) and its orbits from a few dozen permutations, and the
breadth-first closure listing all 40320 elements, kept as the oracle the
tests check the chain against.  Group elements are permutations of the 64
vectors stored as bytes, so composition is one ``bytes.translate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

DIMENSION = 6
SIZE = 64

IDENTITY = bytes(range(SIZE))
_PAD = bytes(256 - SIZE)  # fills a permutation out to a translate table


class ClosureOverflowError(RuntimeError):
    """Breadth-first closure grew past the safety bound."""


def q(v: int) -> int:
    """The quadratic form: sum of products over the three hyperbolic pairs."""
    return ((v >> 0) & (v >> 1) & 1) ^ ((v >> 2) & (v >> 3) & 1) ^ ((v >> 4) & (v >> 5) & 1)


def b(u: int, v: int) -> int:
    """Polarization of q: b(u, v) = q(u+v) + q(u) + q(v)."""
    return q(u ^ v) ^ q(u) ^ q(v)


def q_planes(v: int, planes: int) -> int:
    """q on the first ``planes`` hyperbolic planes (desk-sized variants)."""
    total = 0
    for i in range(planes):
        total ^= (v >> (2 * i)) & (v >> (2 * i + 1)) & 1
    return total


def census(planes: int = 3) -> Tuple[int, int, int]:
    """(zero, isotropic nonzero, non-isotropic) counts, by enumeration."""
    size = 1 << (2 * planes)
    isotropic = sum(1 for v in range(1, size) if q_planes(v, planes) == 0)
    return 1, isotropic, size - 1 - isotropic


def isotropic_vectors() -> Tuple[int, ...]:
    return tuple(v for v in range(1, SIZE) if q(v) == 0)


def nonisotropic_vectors() -> Tuple[int, ...]:
    return tuple(v for v in range(1, SIZE) if q(v) == 1)


def perp_census(h: int) -> Tuple[int, int]:
    """(isotropic, non-isotropic) counts among nonzero vectors of h-perp."""
    if not 0 < h < SIZE:
        raise ValueError(f"h must be a nonzero vector below {SIZE}")
    if q(h) != 0:
        raise ValueError("h must be isotropic")
    isotropic = nonisotropic = 0
    for v in range(1, SIZE):
        if b(v, h) == 0:
            if q(v) == 0:
                isotropic += 1
            else:
                nonisotropic += 1
    return isotropic, nonisotropic


def _compose(p: bytes, g: bytes) -> bytes:
    """p after g: the permutation v -> p[g[v]]."""
    return g.translate(p + _PAD)


def _inverse(p: bytes) -> bytes:
    return bytes(sorted(range(SIZE), key=p.__getitem__))


@dataclass(frozen=True)
class Isometry:
    """A q-preserving linear permutation of the 64 vectors."""

    perm: bytes

    def __post_init__(self):
        if len(self.perm) != SIZE or set(self.perm) != set(range(SIZE)):
            raise ValueError("not a permutation of the 64 vectors")

    def __call__(self, v: int) -> int:
        return self.perm[v]

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        return Isometry(_compose(self.perm, other.perm))

    def is_linear(self) -> bool:
        # splitting off the lowest set bit, by induction on the number of bits
        perm = self.perm
        return perm[0] == 0 and all(
            perm[v] == perm[v & -v] ^ perm[v & (v - 1)] for v in range(1, SIZE)
        )

    def preserves_form(self) -> bool:
        return all(q(self.perm[v]) == q(v) for v in range(SIZE))


def reflection(v: int) -> Isometry:
    """The transvection x -> x + b(x, v) v for a non-isotropic v.

    It is an involution fixing v (since b(v, v) = 0) and preserves q;
    both facts are checked exhaustively on construction.
    """
    if not 0 < v < SIZE:
        raise ValueError("v must be a nonzero vector")
    if q(v) != 1:
        raise ValueError("reflections require a non-isotropic vector")
    perm = bytes(x ^ (v if b(x, v) else 0) for x in range(SIZE))
    iso = Isometry(perm)
    if not iso.preserves_form():
        raise AssertionError("transvection failed to preserve the form")
    return iso


@lru_cache(maxsize=1)
def reflections() -> Tuple[bytes, ...]:
    """The 28 transvections, in ascending order of their vectors."""
    return tuple(reflection(v).perm for v in nonisotropic_vectors())


@dataclass(frozen=True)
class OrthogonalGroup:
    elements: Tuple[bytes, ...]
    generators: Tuple[bytes, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=1)
def generate_group(max_elements: int = 10 ** 6) -> OrthogonalGroup:
    """Breadth-first closure of the 28 reflections.

    Generator order is fixed (ascending vector index) so element numbering
    is reproducible run to run.  The check suites read the group from
    ``stabilizer_chain``; this enumeration is the independent route the
    tests compare it with.
    """
    generators = reflections()
    seen = {IDENTITY}
    order: List[bytes] = [IDENTITY]
    frontier = [IDENTITY]
    while frontier:
        next_frontier = []
        for element in frontier:
            for gen in generators:
                candidate = _compose(element, gen)
                if candidate not in seen:
                    seen.add(candidate)
                    order.append(candidate)
                    next_frontier.append(candidate)
                    if len(order) > max_elements:
                        raise ClosureOverflowError(
                            f"closure exceeded {max_elements} elements"
                        )
        frontier = next_frontier
    return OrthogonalGroup(tuple(order), generators)


def orbit(v: int, generators: Iterable[bytes] | None = None) -> frozenset:
    gens = tuple(generators) if generators is not None else reflections()
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def stabilizer(h: int) -> Tuple[bytes, ...]:
    """Stab(h) by filtering the enumerated group: the oracle for the chain."""
    group = generate_group()
    return tuple(p for p in group.elements if p[h] == h)


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


@dataclass(frozen=True)
class StabilizerChain:
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
    iso_count, noniso_count = perp_census(h)  # validates h
    iso_perp = [v for v in isotropic_vectors() if b(v, h) == 0]
    noniso_perp = [v for v in nonisotropic_vectors() if b(v, h) == 0]
    assert (len(iso_perp), len(noniso_perp)) == (iso_count, noniso_count)
    chain = stabilizer_chain(h)
    return {
        "isotropic_orbits": len(orbits_under(chain.generators[1], iso_perp)),
        "nonisotropic_orbits": len(orbits_under(chain.generators[1], noniso_perp)),
        "stabilizer_order": math.prod(chain.orbit_sizes[1:]),
    }


def stab_transitive_on_perp(h: int) -> bool:
    """Does Stab(h) act transitively on the non-isotropic part of h-perp?"""
    return stab_orbit_summary(h)["nonisotropic_orbits"] == 1

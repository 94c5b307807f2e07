"""The 6-dimensional quadratic space over GF(2) with form u + u + u.

Vectors are integers 0..63; bit i holds coordinate i+1, so the hyperbolic
pairs are bits (0,1), (2,3), (4,5) and q(v) = v1*v2 + v3*v4 + v5*v6.
Censuses by q-value, orthogonal complements of isotropic vectors, the 28
transvections attached to non-isotropic vectors, and the breadth-first
closure generating the full orthogonal group (order 40320) all live here.
Group elements are permutations of the 64 vectors stored as bytes, so
composition is table lookup and the whole group fits in a few megabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

DIMENSION = 6
SIZE = 64

IDENTITY = bytes(range(SIZE))


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
    return bytes(map(p.__getitem__, g))


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
        basis_images = [self.perm[1 << i] for i in range(DIMENSION)]
        for v in range(SIZE):
            image = 0
            for i in range(DIMENSION):
                if (v >> i) & 1:
                    image ^= basis_images[i]
            if image != self.perm[v]:
                return False
        return True

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
    is reproducible run to run.
    """
    generators = tuple(reflection(v).perm for v in nonisotropic_vectors())
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
    gens = tuple(generators) if generators is not None else tuple(
        reflection(w).perm for w in nonisotropic_vectors()
    )
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
    group = generate_group()
    return tuple(p for p in group.elements if p[h] == h)


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
    """Orbit counts of Stab(h) on the isotropic and non-isotropic parts of h-perp."""
    iso_count, noniso_count = perp_census(h)  # validates h
    iso_perp = [v for v in isotropic_vectors() if b(v, h) == 0]
    noniso_perp = [v for v in nonisotropic_vectors() if b(v, h) == 0]
    assert (len(iso_perp), len(noniso_perp)) == (iso_count, noniso_count)
    stab = stabilizer(h)
    return {
        "isotropic_orbits": len(orbits_under(stab, iso_perp)),
        "nonisotropic_orbits": len(orbits_under(stab, noniso_perp)),
        "stabilizer_order": len(stab),
    }


def stab_transitive_on_perp(h: int) -> bool:
    """Does Stab(h) act transitively on the non-isotropic part of h-perp?"""
    return stab_orbit_summary(h)["nonisotropic_orbits"] == 1

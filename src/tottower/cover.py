"""Covers of a complex by pointed subcomplexes and their bar-model glue.

A cover holds an ambient complex, finitely many subcomplexes whose union
is the whole space, and a basepoint common to all pieces, so every
intersection of pieces is nonempty.  Two computations hang off that:

* ``hocolim_chain`` builds the chain complex of the simplicial
  replacement of the intersection diagram over nonempty index subsets, a
  bar construction whose homology must reproduce the homology of the
  ambient complex for any cover;
* ``check_r_acyclic`` tests whether every intersection of at most r
  pieces has vanishing reduced homology, which buys the connectivity
  bound H~_i = 0 for i <= 2r - n verified by ``verify_cover_theorem``.

Generator order in the bar complex is fixed: ascending chain length,
then chain key, then the target complex's own simplex order.  Reports
never raise on a failed hypothesis; they carry the failure.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._record import record
from .abelian import HomologyGroup
from .chains import ChainComplexInt
from .errors import InputError, PreconditionError
from .intlinalg import IntMatrix
from .simplicial import (
    SimplicialComplex,
    complex_from_facets,
    homology_from_reduced,
    reduced_homology,
)

__all__ = [
    "CoverDiagram",
    "cover_from_subcomplexes",
    "check_r_acyclic",
    "hocolim_chain",
    "verify_cover_theorem",
    "CoverReport",
]

HOMOLOGY_COMPARISON_DISCLAIMER = (
    "cover reconstruction and connectivity are checked on integral "
    "homology groups, not on spaces"
)


def _simplex_set(k: SimplicialComplex) -> frozenset:
    return frozenset(
        s for simps in k.simplices_by_dim.values() for s in simps
    )


@record
class CoverDiagram:
    """A basepointed cover of ``space`` by subcomplexes."""

    space: SimplicialComplex
    pieces: tuple
    basepoint: object

    def __post_init__(self):
        if not self.pieces:
            raise InputError("cover needs at least one piece")
        ambient = _simplex_set(self.space)
        if (self.basepoint,) not in ambient:
            raise InputError("basepoint is not a vertex")
        covered = set()
        for idx, piece in enumerate(self.pieces, start=1):
            simps = _simplex_set(piece)
            if not simps <= ambient:
                raise InputError(
                    f"piece {idx} is not a subcomplex of the space"
                )
            if (self.basepoint,) not in simps:
                raise InputError(
                    f"basepoint {self.basepoint!r} missing from piece {idx}"
                )
            covered |= simps
        if covered != ambient:
            raise InputError("pieces do not cover the space")

    @property
    def size(self) -> int:
        return len(self.pieces)

    @cached_property
    def _piece_simplices(self) -> tuple:
        return tuple(_simplex_set(p) for p in self.pieces)

    @cached_property
    def intersections(self) -> dict:
        """All 2^n - 1 intersections, keyed by 1-based index frozenset."""
        table = {}
        for size in range(1, self.size + 1):
            for team in itertools.combinations(range(self.size), size):
                simps = set(self._piece_simplices[team[0]])
                for i in team[1:]:
                    simps &= self._piece_simplices[i]
                key = frozenset(i + 1 for i in team)
                table[key] = complex_from_facets(
                    list(simps), basepoint=self.basepoint
                )
        return table


def cover_from_subcomplexes(space, piece_facets, basepoint) -> CoverDiagram:
    """Build a cover from facet lists, one list per piece, unpointed: the
    diagram's own check names a piece that misses the basepoint."""
    pieces = tuple(complex_from_facets(facets) for facets in piece_facets)
    return CoverDiagram(space=space, pieces=pieces, basepoint=basepoint)


def check_r_acyclic(cov: CoverDiagram, r: int):
    """Do all intersections of at most r pieces have trivial reduced
    homology?  Returns (ok, witnesses); each witness is an offending
    (index set, degree, group) triple."""
    if not 1 <= r <= cov.size:
        raise PreconditionError("need 1 <= r <= number of pieces")
    witnesses = []
    for key in sorted(cov.intersections, key=lambda k: (len(k), sorted(k))):
        if len(key) > r:
            continue
        for degree, group in sorted(
            reduced_homology(cov.intersections[key]).items()
        ):
            if not group.is_trivial:
                witnesses.append((tuple(sorted(key)), degree, str(group)))
    return (not witnesses), tuple(witnesses)


def _strict_chains(n: int):
    """Strict chains of nonempty subsets of {1..n}, as tuples of
    frozensets, grouped by length."""
    subsets = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in itertools.combinations(range(1, n + 1), size)
    ]
    order = {s: (len(s), tuple(sorted(s))) for s in subsets}
    subsets.sort(key=order.__getitem__)
    by_len = {0: [(s,) for s in subsets]}
    current = by_len[0]
    level = 0
    while current:
        level += 1
        grown = [
            chain + (s,)
            for chain in current
            for s in subsets
            if chain[-1] < s
        ]
        grown.sort(key=lambda c: tuple(order[s] for s in c))
        if grown:
            by_len[level] = grown
        current = grown
    return by_len


def hocolim_chain(cov: CoverDiagram) -> ChainComplexInt:
    """Chain complex of the simplicial replacement of the intersection
    diagram: one block per (strict index chain, simplex of the deepest
    intersection), differential = bar faces plus (-1)^p times the
    internal boundary."""
    chains_by_len = _strict_chains(cov.size)
    values = {
        chain: cov.intersections[chain[-1]]
        for chains in chains_by_len.values()
        for chain in chains
    }
    top = max(
        p + values[c].dimension
        for p, chains in chains_by_len.items()
        for c in chains
    )
    basis = {k: [] for k in range(top + 1)}
    for p in sorted(chains_by_len):
        for chain in chains_by_len[p]:
            by_dim = values[chain].simplices_by_dim
            for q in sorted(by_dim):
                for s in by_dim[q]:
                    basis[p + q].append((chain, s))
    index = {
        k: {gen: i for i, gen in enumerate(gens)}
        for k, gens in basis.items()
    }
    boundaries = {}
    for k in range(1, top + 1):
        entries = {}
        target = index[k - 1]
        for col, (chain, s) in enumerate(basis[k]):
            p = len(chain) - 1
            for i in range(p + 1) if p else ():
                shorter = chain[:i] + chain[i + 1:]
                row = target[(shorter, s)]
                entries[(row, col)] = entries.get((row, col), 0) + (-1) ** i
            sign = (-1) ** p
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                if not face:
                    continue
                row = target[(chain, face)]
                entries[(row, col)] = (
                    entries.get((row, col), 0) + sign * (-1) ** j
                )
        boundaries[k] = IntMatrix.from_dict(
            len(basis[k - 1]), len(basis[k]),
            {rc: v for rc, v in entries.items() if v},
        )
    return ChainComplexInt(
        lo=0,
        ranks=tuple(len(basis[k]) for k in range(top + 1)),
        boundaries=tuple(boundaries[k] for k in range(1, top + 1)),
    )


@record
class CoverReport:
    """Everything verify_cover_theorem measured, failures included."""

    size: int
    r: int
    acyclic_ok: bool
    acyclic_witnesses: tuple
    hocolim_matches: bool
    homology_table: tuple     # ((degree, hocolim group, space group), ...)
    connectivity_bound: int
    connectivity_ok: bool | None
    connectivity_failures: tuple
    diagnostics: tuple
    weakenings: tuple = (HOMOLOGY_COMPARISON_DISCLAIMER,)

    def to_data(self):
        return {
            "size": self.size,
            "r": self.r,
            "acyclic_ok": self.acyclic_ok,
            "acyclic_witnesses": [
                {"indices": list(ix), "degree": d, "group": g}
                for ix, d, g in self.acyclic_witnesses
            ],
            "hocolim_matches": self.hocolim_matches,
            "homology": [
                {"degree": d, "hocolim": a, "space": b}
                for d, a, b in self.homology_table
            ],
            "connectivity_bound": self.connectivity_bound,
            "connectivity_ok": self.connectivity_ok,
            "connectivity_failures": [
                {"degree": d, "group": g}
                for d, g in self.connectivity_failures
            ],
            "diagnostics": list(self.diagnostics),
            "weakenings": list(self.weakenings),
        }


def verify_cover_theorem(cov: CoverDiagram, r: int) -> CoverReport:
    """Check the two homology consequences of an r-acyclic cover.

    The bar-model comparison H(hocolim) = H(X) is checked whether or not
    the acyclicity hypothesis holds; the connectivity bound 2r - n is
    only meaningful under the hypothesis and is skipped (None) without
    it.  Nothing raises on a failed check; the report carries it."""
    acyclic_ok, witnesses = check_r_acyclic(cov, r)
    bar = hocolim_chain(cov)
    reduced = reduced_homology(cov.space)
    space_homology = homology_from_reduced(reduced)
    bar_homology = bar.homology_all()
    degrees = sorted(set(space_homology) | set(bar_homology))
    zero = HomologyGroup(0)
    table = []
    matches = True
    for d in degrees:
        a = bar_homology.get(d, zero)
        b = space_homology.get(d, zero)
        table.append((d, str(a), str(b)))
        matches = matches and a == b
    bound = 2 * r - cov.size
    diagnostics = []
    if acyclic_ok:
        failures = tuple(
            (d, str(group))
            for d, group in sorted(reduced.items())
            if 0 <= d <= bound and not group.is_trivial
        )
        connectivity_ok = not failures
    else:
        failures = ()
        connectivity_ok = None
        diagnostics.append(
            "acyclicity hypothesis failed; connectivity bound not tested"
        )
    return CoverReport(
        size=cov.size,
        r=r,
        acyclic_ok=acyclic_ok,
        acyclic_witnesses=witnesses,
        hocolim_matches=matches,
        homology_table=tuple(table),
        connectivity_bound=bound,
        connectivity_ok=connectivity_ok,
        connectivity_failures=failures,
        diagnostics=tuple(diagnostics),
    )

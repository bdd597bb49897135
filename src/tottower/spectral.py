"""Spectral sequence of the stripe filtration on the full totalization.

The totalization carries a finite decreasing filtration by "stripes from
s up", and the filtration is respected by the total differential because
each stripe maps only into itself and its successor.  Every page entry
is therefore an honest subquotient lattice of the total complex,

    E_r^{s,t} = Z_r / (Z_{r-1}' + D Z_{r-1}''),
    Z_r at (s, k) = {x in F^s_k : D x in F^{s+r}_{k-1}},

computed over the integers with exact kernels, and the differentials are
induced on those presentations by the total differential itself.  Here t
is the internal stripe degree and k = t - s the total degree.

Entries stabilize at page M+1 (a differential off page r moves r stripes,
and there are only M+1 of them), so pages past M+1 are copies of the
stable page and are not built again.  Construction verifies, entry by
entry, that each page through M+1 is the homology of the one before and
that the stable page matches the filtration's associated graded of the
totalization homology, computed by an independent route.
"""

from __future__ import annotations

from ._record import record
from .abelian import (
    GroupHom,
    HomologyGroup,
    format_group,
    induced_hom,
    presented_homology,
    subquotient_presentation,
)
from .cosimplicial import Conormalization, CosimplicialChain, coface_sum
from .errors import InputError, InvariantError
from .intlinalg import IntMatrix, kernel_lattice, lattice_basis

__all__ = [
    "SpectralSequencePage",
    "SpectralSequence",
    "spectral_sequence",
    "e2_from_level_homology",
    "differential_range",
    "check_fringe_request",
    "fringe_filtration_check",
    "MAX_PAGES",
]

# The most pages an explicit r_max may ask for.  Every entry is stable from
# page truncation + 1 on and later pages are copies of that one, so the cap
# bounds the size of the report, not the work: each later page repeats
# every stable entry in the report.
MAX_PAGES = 64


class _Filtration:
    """The decreasing filtration F^s of the full totalization by the
    stripes >= s, on the conormalization's one stripe layout, with the
    z-lattices every page reads cached."""

    def __init__(self, conorm: Conormalization):
        self.top = conorm.truncation
        self.win = conorm.total
        self._z = {}

    def z_lattice(self, s: int, r: int, k: int) -> IntMatrix:
        """Basis of {x in F^s at degree k : D x in F^{s+r}}."""
        # the kernel of the block of D from the stripes >= s at degree k
        # to the stripes < s + r at degree k - 1, keyed on the block, so
        # (s, r) pairs that cut equal blocks share one elimination
        rows = self.win.start(s + r, k - 1)
        col0 = self.win.start(s, k)
        key = (k, rows, col0)
        if key not in self._z:
            # shifting the rows of a column Hermite form keeps it one
            bnd = self.win.boundary(k)
            ker = kernel_lattice(bnd.block(range(rows),
                                           range(col0, bnd.ncols)))
            self._z[key] = IntMatrix(bnd.ncols, ker.ncols, tuple(
                (i + col0, j, v) for i, j, v in ker.entries
            ))
        return self._z[key]

    def page_spot(self, s: int, r: int, k: int):
        numer = self.z_lattice(s, r, k)
        denom = IntMatrix.hstack([
            self.z_lattice(s + 1, r - 1, k),
            self.win.boundary(k + 1)
            @ self.z_lattice(s - r + 1, r - 1, k + 1),
        ])
        return subquotient_presentation(numer, denom)


def _zero_into(orders: tuple) -> GroupHom:
    return GroupHom((), orders, IntMatrix.zeros(len(orders), 0))


def _zero_outof(orders: tuple) -> GroupHom:
    return GroupHom(orders, (), IntMatrix.zeros(0, len(orders)))


@record
class SpectralSequencePage:
    """One page: entries keyed by (s, t), differentials by source spot.

    Entries are the nontrivial groups only; differentials are kept for
    the spots where source and target groups are both nontrivial.
    """

    r: int
    entries: tuple
    differentials: tuple

    def entry(self, s: int, t: int) -> HomologyGroup:
        for key, group in self.entries:
            if key == (s, t):
                return group
        return HomologyGroup(0)


@record
class SpectralSequence:
    """Pages 1..r_max plus the stable page and its independent limit.

    ``e_infinity`` lists the entries of the stable page (the one at
    truncation + 1); ``graded_limit`` lists the associated graded of the
    totalization homology under the stripe filtration, computed without
    the page machinery.  Construction verifies they agree.
    """

    truncation: int
    r_max: int
    pages: tuple
    e_infinity: tuple
    graded_limit: tuple

    def page(self, r: int) -> SpectralSequencePage:
        if not 1 <= r <= self.r_max:
            raise InputError(f"pages run from 1 to {self.r_max}")
        return self.pages[r - 1]

    def entry(self, r: int, s: int, t: int) -> HomologyGroup:
        return self.page(r).entry(s, t)

    def to_data(self) -> dict:
        return {
            "truncation": self.truncation,
            "r_max": self.r_max,
            "pages": {
                str(page.r): {
                    f"({s},{t})": format_group(g)
                    for (s, t), g in page.entries
                }
                for page in self.pages
            },
            "e_infinity": {
                f"({s},{t})": format_group(g) for (s, t), g in self.e_infinity
            },
        }


def _graded_limit(fil: _Filtration) -> dict:
    """Associated graded of the totalization homology, stripe by stripe.

    gr^s H_k = (cycles in F^s + boundaries) / (cycles in F^{s+1} +
    boundaries), with every lattice computed directly from the total
    differential.  Where F^s and F^{s+1} cut the same block of it, the
    filtration hands back one lattice for both, and the piece is zero.
    """
    out = {}
    # F^{top + 1} = 0, so at r = top + 1 the z-lattice condition is D x = 0
    cycles_r = fil.top + 1
    for k in fil.win.blocks:
        if not fil.win.rank(k):
            continue
        image = fil.win.boundary(k + 1)
        for s in range(fil.top + 1):
            below = fil.z_lattice(s + 1, cycles_r, k)
            cycles = fil.z_lattice(s, cycles_r, k)
            if below is cycles:
                continue
            numer = lattice_basis(IntMatrix.hstack([cycles, image]))
            denom = IntMatrix.hstack([below, image])
            group = subquotient_presentation(numer, denom).group()
            if not group.is_trivial:
                out[(s, k + s)] = group
    return out


def _verify_pages(spots_by_r: dict, homs_by_r: dict, support: tuple,
                  r_max: int) -> None:
    for r in range(1, r_max):
        for (s, k) in support:
            middle = spots_by_r[r][(s, k)]
            f = homs_by_r[r].get((s - r, k + 1))
            if f is None:
                f = _zero_into(middle.orders)
            g = homs_by_r[r].get((s, k))
            if g is None:
                g = _zero_outof(middle.orders)
            homology = presented_homology(f, g)
            nxt = spots_by_r[r + 1][(s, k)].group()
            if homology != nxt:
                raise InvariantError(
                    f"page {r + 1} entry (s={s}, t={k + s}) is not the "
                    f"homology of page {r}"
                )


def _verify_limit(stable: dict, graded: dict) -> None:
    for key in sorted(set(stable) | set(graded)):
        left = stable.get(key, HomologyGroup(0))
        right = graded.get(key, HomologyGroup(0))
        if left != right:
            s, t = key
            raise InvariantError(
                f"stable page entry (s={s}, t={t}) is {left} but the "
                f"filtration of the totalization gives {right}"
            )


def spectral_sequence(x: CosimplicialChain, r_max: int | None = None) \
        -> SpectralSequence:
    """Pages 1..r_max of the stripe-filtration spectral sequence.

    Page 1 is the homology of the stripes, the first differential is
    induced by the connecting maps, and entries stabilize at page
    truncation + 1.  ``r_max`` defaults to truncation + 2, one page past
    stabilization; an explicit one must lie in 1..MAX_PAGES.  Pages 1
    through truncation + 1 are built, each is checked to be the homology
    of its predecessor, and the stable page is checked against the graded
    totalization homology; disagreement raises.  A later page is a copy
    of the stable one.
    """
    top = x.truncation
    if r_max is None:
        r_max = top + 2
    elif not 1 <= r_max <= MAX_PAGES:
        raise InputError(f"need 1 <= r_max <= {MAX_PAGES}")
    fil = _Filtration(x.conormalization)
    # off the support every page entry is trivial: a filtration piece
    # with nothing in stripe s has Z_r contained in the denominator
    support = tuple(
        (s, k) for k, blocks in fil.win.blocks.items()
        for s, r in blocks if r
    )
    stable_r = top + 1
    spots_by_r = {}
    homs_by_r = {}
    for r in range(1, stable_r + 1):
        spots = {
            (s, k): fil.page_spot(s, r, k) for (s, k) in support
        }
        homs = {}
        for (s, k), spot in spots.items():
            target = (s + r, k - 1)
            if target in spots:
                homs[(s, k)] = induced_hom(spot, spots[target],
                                           fil.win.boundary(k))
        spots_by_r[r] = spots
        homs_by_r[r] = homs
    _verify_pages(spots_by_r, homs_by_r, support, stable_r)
    stable = {
        (s, k + s): spot.group()
        for (s, k), spot in spots_by_r[stable_r].items()
        if not spot.group().is_trivial
    }
    graded = _graded_limit(fil)
    _verify_limit(stable, graded)
    pages = []
    for r in range(1, r_max + 1):
        # past stabilization the stripes s + r are empty: every spot has
        # the lattices of the stable page, and no differential a target
        built = min(r, stable_r)
        entries = tuple(
            ((s, k + s), group)
            for (s, k) in support
            for group in [spots_by_r[built][(s, k)].group()]
            if not group.is_trivial
        )
        table = dict(entries)
        diffs = tuple(
            ((s, k + s), hom)
            for (s, k), hom in sorted(homs_by_r[built].items())
            if (s, k + s) in table and (s + r, k + s + r - 1) in table
        )
        pages.append(SpectralSequencePage(
            r=r,
            entries=tuple(sorted(entries)),
            differentials=diffs,
        ))
    return SpectralSequence(
        truncation=top,
        r_max=r_max,
        pages=tuple(pages),
        e_infinity=tuple(sorted(stable.items())),
        graded_limit=tuple(sorted(graded.items())),
    )


def _level_homology_spot(x: CosimplicialChain, s: int, t: int):
    """Degree-t homology of level s, cut down to the part killed by
    every codegeneracy out of the level.

    Killed on homology, that is: cycles whose image under each s^i is a
    boundary one level down.  Boundaries stay inside because the
    codegeneracies are chain maps, so this presents a subgroup of the
    homology of the level.
    """
    level = x.levels[s]
    cycles = kernel_lattice(level.boundary(t))
    bnd = level.boundary(t + 1)
    if s == 0:
        numer = cycles
    else:
        below = x.levels[s - 1]
        prev_bnd = below.boundary(t + 1)
        width = cycles.ncols
        wit = prev_bnd.ncols
        blocks = {}
        for i in range(s):
            si = x.codegeneracy(s, i).component(t)
            blocks[(i, 0)] = si @ cycles
            blocks[(i, i + 1)] = -prev_bnd
        system = IntMatrix.from_blocks(
            [below.rank(t)] * s, [width] + [wit] * s, blocks
        )
        coeffs = kernel_lattice(system)
        numer = lattice_basis(
            cycles @ coeffs.block(range(width), range(coeffs.ncols)))
    return subquotient_presentation(numer, bnd)


def e2_from_level_homology(x: CosimplicialChain) -> dict:
    """Second-page oracle straight from the levels: for each internal
    degree t, conormalize the homology groups H_t of the levels (with
    the induced codegeneracies) and take cohomology of the induced
    alternating coface sum.

    Returns {(s, t): group}, nontrivial entries only.  No filtration,
    no stripes: an independent route to the same table.
    """
    top = x.truncation
    lo = min(level.lo for level in x.levels)
    hi = max(level.hi for level in x.levels)
    sums = [coface_sum(x, s) for s in range(top)]
    table = {}
    for t in range(lo, hi + 1):
        spots = [
            _level_homology_spot(x, s, t) for s in range(top + 1)
        ]
        homs = [
            induced_hom(spots[s], spots[s + 1], sums[s].component(t))
            for s in range(top)
        ]
        for s in range(top + 1):
            f = homs[s - 1] if s >= 1 else _zero_into(spots[0].orders)
            g = homs[s] if s < top else _zero_outof(spots[top].orders)
            group = presented_homology(f, g)
            if not group.is_trivial:
                table[(s, t)] = group
    return table


def differential_range(s: int, r: int) -> bool:
    """Whether a page-r differential out of column s stays in the range
    r <= s - 1.  Meaningful for s >= 1 and r >= 2."""
    return r <= s - 1


def check_fringe_request(truncation: int, r_max: int | None,
                         bound: int) -> None:
    """Refuse a fringe audit that fringe_filtration_check cannot make: a
    negative bound, or pages 1..r_max that stop short of the stable page.
    ``r_max`` None stands for the default of spectral_sequence, which
    always reaches it."""
    if bound < 0:
        raise InputError("need bound >= 0")
    if r_max is not None and r_max < truncation + 1:
        raise InputError("need pages through truncation + 1")


def fringe_filtration_check(result: SpectralSequence, bound: int) -> dict:
    """Bookkeeping over the computed pages for the diagonal entries.

    Scans the nonzero second-page entries at (s, s) with s > bound and
    records, per entry, on which pages its group shrinks and whether it
    survives to the stable page.  A shrink between pages r and r+1 is
    charged to the page-r differential; ``within_range`` asks that every
    such r satisfies r <= s - 1.  No entries to scan gives a vacuously
    passing report.
    """
    check_fringe_request(result.truncation, result.r_max, bound)
    stable_r = result.truncation + 1
    rows = []
    second = result.page(2).entries if result.r_max >= 2 else ()
    for (s, t), start in second:
        if t != s or s <= bound:
            continue
        changes = []
        prev = start
        for r in range(3, stable_r + 1):
            cur = result.entry(r, s, t)
            if cur != prev:
                changes.append((r - 1, format_group(cur)))
                prev = cur
        stable = result.entry(stable_r, s, t)
        survives = not stable.is_trivial
        rows.append({
            "s": s,
            "t": t,
            "e2": format_group(start),
            "stable": format_group(stable),
            "changes": changes,
            "within_range": all(differential_range(s, r)
                                for r, _ in changes),
            "survives": survives,
        })
    return {
        "bound": bound,
        "rows": rows,
        "vacuous": not rows,
        "all_accounted": all(
            row["survives"] or row["within_range"] for row in rows
        ),
    }

"""Finite simplicial complexes with a canonical vertex order.

Vertex labels may be integers, strings, or (nested) tuples of those; the
mixed-type total order of ``label_key`` makes every construction
deterministic, including order complexes whose vertices are the subsets
or subspaces of a poset.

A complex is stored by its facets.  Homology takes the sorted k-simplices
as the degree-k basis and feeds the alternating-sum boundary on sorted
vertex tuples face by face to ``chains``, never as a matrix.

Vertices are coded once: the distinct labels, sorted by ``label_key``, get
the codes 0..n-1, and simplices are enumerated, sorted and looked up as
tuples of these ints.  The coding preserves order, so every simplex order
equals the ``label_key`` order of the labels themselves.  Labels come back
only in ``facets``, ``vertices`` and ``simplices_by_dim``.  An order
complex comes with its simplices already coded and sorted
(``complex_from_coded``), so none is enumerated again.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import cached_property

from ._record import record
from .abelian import HomologyGroup
from .chains import homology_from_columns
from .errors import InputError
from .schema import field, is_int, list_of

__all__ = [
    "label_key",
    "SimplicialComplex",
    "complex_from_facets",
    "complex_from_coded",
    "reduced_homology",
    "homology_from_reduced",
    "HOMOLOGY_ONLY_DISCLAIMER",
    "WedgeSignature",
    "wedge_signature",
    "wedge_signature_from_homology",
    "euler_characteristic",
    "complex_from_data",
    "facets_from_data",
    "label_from_data",
    "MAX_LABEL_DEPTH",
    "MAX_FACES",
]

# Complexes with more faces than this are refused with InputError: a facet
# of v vertices alone has 2^v - 1 faces, so one too large is refused before
# any face is listed.  posets.order_complex counts all chains first and
# lists each one once, then hands them over through complex_from_coded, so
# an order complex is never listed here.  Other complexes count their faces
# as they are listed, and listing stops at the first facet that takes the
# count past the cap, so no more than twice MAX_FACES faces are ever held.
# On a 2-vCPU Xeon VM `tottower homology` of one facet of 16 vertices
# (65535 faces) takes about 0.4 s and 47 MiB, and each further vertex
# doubles the faces.  The largest complex the benchmark and the scripts
# build has 14511 faces; the order complex of the subsets of an 8-set with
# card <= 5 has 36366, and the tests list the 65535 of a total order of 16.
MAX_FACES = 65_536


def label_key(v):
    """Sort key giving a total order across all allowed label types."""
    if isinstance(v, bool):
        raise InputError("booleans are not allowed as vertex labels")
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(label_key(x) for x in v))
    raise InputError(f"unsupported vertex label of type {type(v).__name__}")


def _code_table(labels) -> dict:
    """Each distinct label -> its rank in label_key order.

    Every label must already have passed ``label_key``: only then do set
    and dict lookups, which go by ``==``, agree with it (``True == 1``).
    """
    return {v: i for i, v in enumerate(sorted(set(labels), key=label_key))}


@record
class SimplicialComplex:
    """Facet list in canonical form, optionally pointed.

    Facets are key-sorted tuples, listed in key order, mutually
    incomparable under containment, and the basepoint, if any, is one of
    their vertices.  The constructor trusts its caller for all of this;
    ``complex_from_facets`` is the checked entry point, which builds that
    form from raw data.  The empty complex (no facets) is allowed.
    """

    facets: tuple
    basepoint: object = None

    @cached_property
    def _coded(self) -> tuple:
        """(labels, by_dim): the vertices in label_key order, vertex
        labels[i] having code i, and per dimension the simplices as
        sorted tuples of codes, in sorted order.

        A complex with more than MAX_FACES faces is refused with
        InputError: before any face is listed when one facet has that
        many, else part-way through listing, at the first facet that
        takes the count of distinct faces past the cap."""
        top = max(map(len, self.facets), default=0)
        if 2 ** top - 1 > MAX_FACES:
            raise InputError(
                f"a facet of {top} vertices has more than {MAX_FACES} "
                f"faces; complexes are built with at most that many"
            )
        code = _code_table(v for f in self.facets for v in f)
        faces = [set() for _ in range(top)]
        for f in self.facets:
            f = tuple(map(code.__getitem__, f))
            for k in range(len(f)):
                faces[k].update(itertools.combinations(f, k + 1))
            if sum(map(len, faces)) > MAX_FACES:
                raise InputError(
                    f"complex has more than {MAX_FACES} faces; complexes "
                    f"are built with at most that many"
                )
        by_dim = {d: tuple(sorted(s)) for d, s in enumerate(faces)}
        return tuple(code), by_dim

    @cached_property
    def simplices_by_dim(self) -> dict:
        labels, by_dim = self._coded
        return {
            d: tuple(tuple(map(labels.__getitem__, s)) for s in simps)
            for d, simps in by_dim.items()
        }

    @property
    def dimension(self) -> int:
        """Top simplex dimension; -1 for the empty complex."""
        return max(self._coded[1], default=-1)


def complex_from_facets(facets, basepoint=None) -> SimplicialComplex:
    """Canonicalize raw facets: sort, deduplicate, absorb contained ones.

    A facet with a repeated vertex is an error, not something to clean up,
    and so is a basepoint that is not a vertex.
    """
    raw = []
    for f in facets:
        f = list(f)
        if not f:
            raise InputError("empty facet")
        for v in f:
            label_key(v)
        if len(set(f)) != len(f):
            raise InputError(f"facet {f!r} repeats a vertex")
        raw.append(f)
    code = _code_table(v for f in raw for v in f)
    if basepoint is not None and basepoint not in code:
        raise InputError("basepoint is not a vertex")
    labels = tuple(code)
    canon = sorted({tuple(sorted(map(code.__getitem__, f))) for f in raw})
    by_size: dict = {}
    for f in canon:
        by_size.setdefault(len(f), []).append(frozenset(f))
    bigger = sorted(by_size, reverse=True)
    keep = []
    for f in canon:
        s = frozenset(f)
        absorbed = False
        for sz in bigger:
            if sz <= len(f):
                break
            if any(s <= t for t in by_size[sz]):
                absorbed = True
                break
        if not absorbed:
            keep.append(tuple(map(labels.__getitem__, f)))
    return SimplicialComplex(tuple(keep), basepoint)


def complex_from_coded(labels: tuple, facets, by_size) -> SimplicialComplex:
    """The complex whose ``_coded`` is (labels, by_size), filled in here
    rather than listed again from the facets.

    Trusted, as the constructor is: labels are distinct, have passed
    ``label_key`` and are listed in its order, and each is a vertex;
    facets are code tuples whose labels are the canonical facet list the
    constructor expects; and by_size[d] lists every d-simplex once, as a
    sorted code tuple, in sorted order.  posets.order_complex builds all
    three in one walk.  Equality and hash stay on the facets and
    basepoint.
    """
    k = SimplicialComplex(
        tuple(tuple(map(labels.__getitem__, f)) for f in facets))
    # cached_property reads the instance dict before computing anything
    k.__dict__["_coded"] = labels, dict(enumerate(map(tuple, by_size)))
    return k


def reduced_homology(k: SimplicialComplex) -> dict:
    """{degree: HomologyGroup} of the augmented chains, degrees -1 .. dim;
    the augmentation is the boundary onto the (-1)-simplex ()."""
    by_dim = k._coded[1]
    # the empty complex keeps its degree 0, of rank 0
    simps = [((),)] + [by_dim.get(d, ()) for d in range(max(len(by_dim), 1))]

    def columns(t, skip):
        row_of = {s: i for i, s in enumerate(simps[t])}
        # combinations(s, t) drops s[t], s[t-1], ..., s[0] in turn, and
        # the face without s[i] has sign (-1)^i
        signs = [(-1) ** (t - q) for q in range(t + 1)]
        cols, rows = {}, defaultdict(set)
        for j, s in enumerate(simps[t + 1]):
            col = {}
            for face, sign in zip(itertools.combinations(s, t), signs):
                i = row_of[face]
                if i not in skip:
                    col[i] = sign
                    rows[i].add(j)
            if col:
                cols[j] = col
        return cols, rows
    return homology_from_columns(-1, tuple(map(len, simps)), columns)


def homology_from_reduced(groups: dict) -> dict:
    """The homology table, degrees 0 .. dim, read off the reduced one:
    H_0 is H~_0 plus Z unless H~_{-1} = Z marks the empty complex."""
    out = {d: h for d, h in groups.items() if d >= 0}
    if groups[-1].is_trivial:
        out[0] = HomologyGroup(out[0].rank + 1, out[0].torsion)
    return out


def euler_characteristic(k: SimplicialComplex) -> int:
    return sum((-1) ** d * len(simps) for d, simps in k._coded[1].items())


# Every sphere-wedge report (deloop, poset wedge-check) carries this.
HOMOLOGY_ONLY_DISCLAIMER = (
    "sphere wedge values are certified by integral homology alone; "
    "no homotopy equivalence is constructed"
)


@record
class WedgeSignature:
    """Reduced homology shape of a wedge of same-dimensional spheres.

    count == 0 encodes trivial reduced homology (a homology point); the
    sphere_dim slot is 0 by convention in that case.  This is a statement
    about integral homology only, never about homotopy type.
    """

    sphere_dim: int
    count: int

    @classmethod
    def contractible(cls) -> "WedgeSignature":
        return cls(0, 0)

    @property
    def is_contractible(self) -> bool:
        return self.count == 0

    def to_data(self):
        if self.count == 0:
            return {"contractible": True}
        return {"sphere_dim": self.sphere_dim, "count": self.count}


def wedge_signature(k: SimplicialComplex):
    """Signature if reduced homology is free and in one degree, else None.

    The empty complex has nonzero reduced homology in degree -1 and so has
    no signature.
    """
    return wedge_signature_from_homology(reduced_homology(k))


def wedge_signature_from_homology(groups: dict):
    """wedge_signature read off a reduced homology table (degree -> group)."""
    nonzero = {d: h for d, h in groups.items() if not h.is_trivial}
    if not nonzero:
        return WedgeSignature.contractible()
    if len(nonzero) != 1:
        return None
    (d, h), = nonzero.items()
    if d < 0 or h.torsion:
        return None
    return WedgeSignature(d, h.rank)


# A label's lists may nest at most this deep.  Deeper input is refused
# with InputError rather than left to exhaust Python's recursion limit.
MAX_LABEL_DEPTH = 100


def label_from_data(v):
    """A JSON vertex label: an int, a string, or a list read as a tuple.

    A label nested more than MAX_LABEL_DEPTH lists deep raises InputError.
    """
    return _label_from_data(v, 0)


def _label_from_data(v, depth: int):
    # depth counts the lists already entered.
    if isinstance(v, list):
        if depth >= MAX_LABEL_DEPTH:
            raise InputError(
                f"vertex label nested more than {MAX_LABEL_DEPTH} lists deep"
            )
        return tuple(_label_from_data(x, depth + 1) for x in v)
    if not (is_int(v) or isinstance(v, str)):
        raise InputError(
            f"unsupported vertex label of type {type(v).__name__}"
        )
    return v


def facets_from_data(data) -> tuple:
    """Facets (label lists, in file order) and basepoint of complex data."""
    raw = list_of(field(data, "facets", "complex"), list,
                  "'facets' must be a list of lists of labels")
    base = data.get("basepoint")
    facets = [[label_from_data(v) for v in f] for f in raw]
    return facets, None if base is None else label_from_data(base)


def complex_from_data(data) -> SimplicialComplex:
    return complex_from_facets(*facets_from_data(data))

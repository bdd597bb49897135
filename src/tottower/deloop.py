"""Delooping certificates from pointwise suspension diagrams.

Given a full, downward closed subposet inclusion, every ambient element d
receives the unreduced suspension of its slice's order complex.  Since
the reduced homology of a suspension is that of the nonempty complex
shifted up one degree, the analysis reads the slice order complexes
themselves and shifts their signatures; the tests build the suspended
diagram itself (``t_functor`` in ``tests/suspension_reference.py``) as
the reference.  Elements of the subposet get homology points.  When
every complement element gets a homology wedge of spheres of one
common dimension p, the number

    d_max = p - (length of the longest complement chain)

bounds how many delooping steps the diagram certifies.  The certificate
lives at the level of integral homology: a value whose homology matches a
sphere wedge is accepted as one, and no homotopy equivalence is ever
constructed.  Reports say so explicitly in their ``weakenings`` field.

The model builders at the bottom produce the three families on which
d_max meets a closed form: truncated subset posets inside a power set,
truncated subspace posets inside the full subspace poset, and the
simplex models pairing a totalization stage n with an ambient width m.
``tot_truncation_bound`` is the closed form of the last, which the
``deloop --tot`` report gives; the tests hold the other two, in
``tests/suspension_reference.py``.
"""

from __future__ import annotations

from ._record import record
from .errors import InputError, InvariantError, PreconditionError
from .posets import (
    FinPoset,
    PosetInclusion,
    check_fence_condition,
    checked_chain_count,
    down_slice_masks,
    full_subposet,
    order_complex,
    poset_dimension,
    subset_poset,
    subspace_poset,
)
from .simplicial import (
    HOMOLOGY_ONLY_DISCLAIMER,
    WedgeSignature,
    wedge_signature,
)

__all__ = [
    "InclusionReport",
    "analyze_inclusion",
    "tot_truncation_bound",
    "delta_model",
    "subset_model",
    "subspace_model",
]


@record
class InclusionReport:
    """Outcome of analyzing one subposet inclusion.

    ``d_max`` is reported raw: it may be zero or negative when the
    complement is deep relative to the sphere dimension, and it is None
    when the fiber is trivial (nothing noncontractible in the complement)
    so no sphere dimension exists to subtract from.
    """

    signatures: tuple          # ((element, WedgeSignature), ...)
    uniform_sphere_dim: int | None
    complement_dim: int        # -1 when the complement is empty
    d_max: int | None
    trivial_fiber: bool
    diagnostics: tuple
    weakenings: tuple = (HOMOLOGY_ONLY_DISCLAIMER,)

    def to_data(self):
        return {
            "pointwise": {
                str(e): sig.to_data() for e, sig in self.signatures
            },
            "p": self.uniform_sphere_dim,
            "complement_dim": self.complement_dim,
            "d_max": self.d_max,
            "trivial_fiber": self.trivial_fiber,
            "diagnostics": list(self.diagnostics),
            "weakenings": list(self.weakenings),
        }


def analyze_inclusion(incl: PosetInclusion) -> InclusionReport:
    """Run the suspension-diagram analysis on a downward closed inclusion.

    The value over an ambient element is the order complex of its slice
    shifted up one degree: a noncontractible signature gains one sphere
    dimension, which is the signature of the slice's unreduced
    suspension as the tests' reference ``t_functor`` builds it.

    Slices are grouped by shape, their relation masks: the caps are
    checked, and the order complex and its homology computed, once per
    shape, at its first element in ambient order, and every element of
    that shape gets the same value.  This is exact, not up to
    isomorphism: a slice keeps its elements in ``label_key`` order, so
    vertex codes follow element indices and equal masks give the same
    coded order complex, the same chain complex and the same homology.
    Walking the elements in ambient order keeps every error at the
    element the per-slice computation would name.

    Raises PreconditionError when the inclusion is not downward closed,
    a slice is empty, or the complement values fail to be homology wedges
    of a single sphere dimension.  Raises InvariantError if a subposet
    value comes out noncontractible, which theory forbids, and InputError
    if a slice has more than ``posets.MAX_CHAINS`` maximal chains or more
    than ``simplicial.MAX_FACES`` chains in all.
    """
    ok, witnesses = check_fence_condition(incl)
    if not ok:
        x, c = witnesses[0]
        raise PreconditionError(
            f"inclusion is not downward closed: {x!r} < {c!r} "
            f"({len(witnesses)} witnesses)"
        )
    sub = incl.sub
    slices = []     # one poset per slice shape, first seen first
    shape_of = {}   # slice relation masks -> index into slices
    shapes = []     # per ambient element, the index of its slice shape
    for d, (picked, down) in zip(incl.ambient.elements,
                                 down_slice_masks(incl)):
        if not picked:
            raise PreconditionError(
                f"slice under {d!r} is empty; cannot take its suspension"
            )
        if down not in shape_of:
            sl = FinPoset(tuple(sub.elements[t] for t in picked), down)
            # refuse an oversized slice before any order complex is built
            checked_chain_count(sl)
            shape_of[down] = len(slices)
            slices.append(sl)
        shapes.append(shape_of[down])
    inside = set(sub.elements)
    shape_sigs = {}
    signatures = []
    complement_sigs = []
    for e, k in zip(incl.ambient.elements, shapes):
        if k not in shape_sigs:
            sig = wedge_signature(order_complex(slices[k]))
            if sig is not None and not sig.is_contractible:
                sig = WedgeSignature(sig.sphere_dim + 1, sig.count)
            shape_sigs[k] = sig
        sig = shape_sigs[k]
        if e in inside:
            if sig is None or not sig.is_contractible:
                raise InvariantError(
                    f"value over subposet element {e!r} is not a "
                    f"homology point"
                )
        else:
            if sig is None:
                raise PreconditionError(
                    f"value over {e!r} is not a homology wedge of "
                    f"spheres in one dimension"
                )
            complement_sigs.append((e, sig))
        signatures.append((e, sig))
    complement = incl.complement()
    complement_dim = (
        poset_dimension(full_subposet(incl.ambient, complement))
        if complement else -1
    )
    dims = sorted({
        sig.sphere_dim for _, sig in complement_sigs
        if not sig.is_contractible
    })
    diagnostics = [
        f"{len(inside)} subposet values, all homology points",
        f"{len(complement)} complement values, "
        f"{sum(1 for _, s in complement_sigs if not s.is_contractible)} "
        f"noncontractible",
    ]
    if len(dims) > 1:
        raise PreconditionError(
            f"complement values mix sphere dimensions {dims}"
        )
    p = dims[0] if dims else None
    if p is not None:
        diagnostics.append(f"uniform sphere dimension {p}")
    return InclusionReport(
        signatures=tuple(signatures),
        uniform_sphere_dim=p,
        complement_dim=complement_dim,
        d_max=None if p is None else p - complement_dim,
        trivial_fiber=p is None,
        diagnostics=tuple(diagnostics),
    )


# -- numeric bounds ---------------------------------------------------------

def tot_truncation_bound(n: int, m: int):
    """Delooping steps certified for the stage-n totalization of an
    object concentrated in levels <= m.  Returns None when m > 2n + 1,
    where this bound gives nothing."""
    if n < 1 or m < n:
        raise PreconditionError("need 1 <= n <= m")
    if m > 2 * n + 1:
        return None
    return 2 * n - m + 2


# -- model builders ----------------------------------------------------------

def subset_model(size: int, r: int) -> PosetInclusion:
    """Card <= r nonempty subsets of {0..size-1} inside all of them."""
    if not 1 <= r <= size:
        raise InputError("need 1 <= r <= size")
    ambient = subset_poset(range(size))
    sub = full_subposet(
        ambient, [e for e in ambient.elements if len(e) <= r]
    )
    return PosetInclusion(sub, ambient)


def subspace_model(q: int, n: int, r: int) -> PosetInclusion:
    """Dim <= r subspaces of F_q^n inside all nonzero subspaces."""
    if not 1 <= r <= n:
        raise InputError("need 1 <= r <= n")
    ambient = subspace_poset(q, n, n)
    sub = full_subposet(
        ambient, [e for e in ambient.elements if len(e) <= r]
    )
    return PosetInclusion(sub, ambient)


def delta_model(n: int, m: int) -> PosetInclusion:
    """Subsets of {0..m} of card <= n+1 inside the full power set.

    This is the poset shape behind the stage-n versus width-m comparison,
    so d_max here reproduces tot_truncation_bound(n, m) whenever the
    complement is nonempty."""
    if n < 0 or m < n:
        raise InputError("need 0 <= n <= m")
    return subset_model(m + 1, n + 1)

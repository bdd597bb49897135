"""The source paper's theorem on the chain shadow of the tool's objects.

The paper: for m <= 2n + 1 the fiber of Tot_m X -> Tot_n X depends only
on Omega^k X, k = 2n - m + 2.  In chain complexes Omega^k X is the
connective cover tau_{>=k} X shifted down k (``shadow_reference``), and
the connective fiber's homology is the window fiber's in degrees >= 0.
So the claim reads: H_{>=0} of tower_fiber(X, n, m) equals that of
tower_fiber(tau_{>=k} X, n, m).  The chain model is sharper than the
paper: equality holds at k = n + 1 in every window, whatever m is, and
fails in some window at k = n + 2.  The paper's dependence on m comes
from non-additive effects that this model cannot see.
"""

from constructions_reference import cech_object
from shadow_reference import connective_cover, shift_object
from test_cosimplicial import CORPUS, SIGNED
from tottower.cosimplicial import tower_fiber, validate_cosimplicial


def connective_homology(x, n: int, m: int) -> dict:
    """The nonzero homology of tower_fiber(x, n, m) in degrees >= 0."""
    return {
        d: g for d, g in tower_fiber(x, n, m).homology_all().items()
        if d >= 0 and not g.is_trivial
    }


def shadow_objects() -> list:
    plain = [obj.x for obj in CORPUS + SIGNED] + [
        cech_object(3, 3), cech_object(4, 4)]
    return [shift_object(x, j) if j else x for x in plain for j in (0, 2, 4)]


def test_connective_covers_are_cosimplicial():
    for x in shadow_objects():
        for k in range(x.truncation + 2):
            cover = connective_cover(x, k)
            assert validate_cosimplicial(cover) == (True, ())
            for row in cover.cofaces + cover.codegeneracies:
                for f in row:
                    f.check_commutes()
            for level in cover.levels:
                level.check_square_zero()


def shadow_of(x):
    """(k, n, m) -> connective_homology(tau_{>=k} x, n, m), taking each
    cover once."""
    covers = {}

    def shadow(k, n, m):
        if k not in covers:
            covers[k] = connective_cover(x, k)
        return connective_homology(covers[k], n, m)
    return shadow


def check_paper_theorem(objects) -> int:
    """Assert the paper's claim, at k = 2n - m + 2, on every window
    n < m <= 2n + 1 of each object; return how many windows it checked."""
    checked = 0
    for x in objects:
        shadow = shadow_of(x)
        for n in range(x.truncation):
            for m in range(n + 1, min(x.truncation, 2 * n + 1) + 1):
                assert shadow(2 * n - m + 2, n, m) == \
                    connective_homology(x, n, m), (n, m)
                checked += 1
    return checked


def test_fibers_depend_only_on_the_connective_cover():
    objects = shadow_objects()
    chain = nonzero = 0
    fails_one_above = []
    for x in objects:
        shadow = shadow_of(x)
        top = x.truncation
        for n in range(top):
            for m in range(n + 1, top + 1):
                fiber = connective_homology(x, n, m)
                nonzero += bool(fiber)
                assert shadow(n + 1, n, m) == fiber, (n, m)
                chain += 1
                if shadow(n + 2, n, m) != fiber:
                    fails_one_above.append((n, m))
    # the counts these objects give: a window lost from the loop, or a
    # cover that changes nothing, shows as a drop
    assert check_paper_theorem(objects) >= 204
    assert chain >= 312
    assert nonzero >= 113
    assert len(fails_one_above) >= 30

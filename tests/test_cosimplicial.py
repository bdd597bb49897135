"""Cosimplicial core: identities, conormalization, matching, towers."""

import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from constructions_reference import (cech_object, constant_object,
                                    cosimplicial_to_data, identity_chain_map)
from corpus_reference import (CorpusObject, corpus, direct_sum, gamma_co,
                              quasi_iso_pairs)
from map_reference import (ReferenceWindow, add, compose, negate,
                           stage_projection, stripe_tail)
from matching_reference import matching_kernel_agrees, matching_object
from shadow_reference import (
    CosimplicialMap,
    quasi_iso_invariance,
    shift,
    shift_check,
    shift_object,
)
from tottower import cosimplicial
from tottower.abelian import HomologyGroup
from tottower.chains import ChainComplexInt, chain_map
from tottower.cli import main
from tottower.cosimplicial import (
    _MARK_NONZERO,
    MAX_RANK,
    CosimplicialChain,
    CosimplicialDecoder,
    conormalize,
    cosimplicial_from_data,
    tot_n,
    tower_fiber,
    validate_cosimplicial,
)
from tottower.errors import InputError, PreconditionError
from tottower.intlinalg import IntMatrix
from tottower.schema import degree_key
from tottower.spectral import spectral_sequence

CORPUS = corpus(seed=20250811, count=14)
ZERO_COMPLEX = ChainComplexInt(0, (0,), ())


def stripe_sign_objects() -> tuple:
    """Block objects with a conormalized piece that has both a nonzero
    boundary and a nonzero coface sum out of it, on even and odd stripes,
    in two degree windows, one with torsion.  No object of CORPUS has
    such a piece, and without one the sign (-1)^s of the stripe boundary
    is never at work: its square-zero cross terms all vanish."""
    def disk(lo, order=1):
        boundary = IntMatrix(1, 1, ((0, 0, order),))
        return ChainComplexInt(lo, (1, 1), (boundary,))
    zero = ChainComplexInt(0, (0, 0), (IntMatrix.zeros(0, 0),))
    d0, d1, twice = disk(0), disk(1), disk(0, 2)
    systems = {
        "signed-even": ((d0, d0), (identity_chain_map(d0),)),
        "signed-odd": ((zero, d0, d0),
                       (chain_map(zero, d0, {}), identity_chain_map(d0))),
        "signed-shifted": ((d1, d1), (identity_chain_map(d1),)),
        "signed-torsion": ((zero, twice, twice),
                           (chain_map(zero, twice, {}),
                            identity_chain_map(twice))),
        "signed-alternating": ((d0, d0, d0, d0), (
            identity_chain_map(d0), chain_map(d0, d0, {}),
            identity_chain_map(d0))),
    }
    return tuple(
        CorpusObject(name=name, x=gamma_co(pieces, deltas), pieces=pieces,
                     deltas=deltas)
        for name, (pieces, deltas) in systems.items())


SIGNED = stripe_sign_objects()
# the corpus, and objects on which the stripe signs are at work
OBJECTS = CORPUS + SIGNED


def signed_pieces(x) -> list:
    """The stripes s of x whose piece has a nonzero boundary and a
    nonzero coface sum out of it."""
    conorm = x.conormalization
    return [
        s for s, delta in enumerate(conorm.deltas)
        if delta.comps
        and any(not b.is_zero for b in conorm.pieces[s].boundaries)
    ]


def test_some_tested_object_puts_the_stripe_signs_to_work():
    stripes = {s for obj in OBJECTS for s in signed_pieces(obj.x)}
    assert {0, 1} <= stripes


def square_complex():
    return ChainComplexInt(0, (2, 2), (IntMatrix.from_rows([[1, 1], [1, 1]]),))


def trim_ends(c):
    """Drop zero-rank degrees at the ends, matching what window assembly
    produces."""
    live = [i for i, r in enumerate(c.ranks) if r]
    if not live:
        return ZERO_COMPLEX
    ranks = c.ranks[live[0]:live[-1] + 1]
    boundaries = c.boundaries[live[0]:live[-1]]
    return ChainComplexInt(c.lo + live[0], ranks, boundaries)


def groups_agree(left, right, offset=0):
    degrees = set(left) | {k + offset for k in right}
    for k in degrees:
        a = left.get(k)
        b = right.get(k - offset)
        a_trivial = a is None or a.is_trivial
        b_trivial = b is None or b.is_trivial
        if a_trivial != b_trivial:
            return False
        if not a_trivial and (a.rank, a.torsion) != (b.rank, b.torsion):
            return False
    return True


# -- constant objects ----------------------------------------------------------


def test_constant_validates_and_conormalizes_to_base():
    c = square_complex()
    x = constant_object(c, 3)
    ok, violations = validate_cosimplicial(x)
    assert ok and violations == ()
    conorm = conormalize(x)
    assert conorm.pieces[0] == c
    for piece in conorm.pieces[1:]:
        assert not any(piece.ranks)


def test_constant_tot_stages_all_equal_base():
    c = square_complex()
    x = constant_object(c, 3)
    assert all(tot_n(x, n) == c for n in range(4))
    for n in range(1, 4):
        proj = stage_projection(x, n)
        assert proj.component(0) == IntMatrix.identity(2)
    assert tower_fiber(x, 0, 3) == ZERO_COMPLEX


def test_constant_matching_is_diagonal():
    c = square_complex()
    x = constant_object(c, 3)
    for m in range(3):
        mo = matching_object(x, m)
        # compatible tuples collapse to a single copy of the level
        assert mo.complex.ranks == c.ranks
        assert matching_kernel_agrees(x, m)


# -- two-point cochain object: frozen values -----------------------------------


def test_cech_levels_and_conormal_ranks():
    x = cech_object(2, 3)
    assert [lvl.ranks for lvl in x.levels] == [(2,), (4,), (8,), (16,)]
    ok, violations = validate_cosimplicial(x)
    assert ok and violations == ()
    conorm = conormalize(x)
    # only the two strictly alternating tuples survive all collapses
    assert [p.ranks for p in conorm.pieces] == [(2,), (2,), (2,), (2,)]


@pytest.mark.parametrize("truncation,expected", [
    (0, {0: HomologyGroup(2)}),
    (1, {0: HomologyGroup(1), -1: HomologyGroup(1)}),
    (2, {0: HomologyGroup(1), -2: HomologyGroup(1)}),
    (3, {0: HomologyGroup(1), -3: HomologyGroup(1)}),
])
def test_cech_two_point_tot_homology(truncation, expected):
    x = cech_object(2, truncation)
    total = tot_n(x, truncation)
    groups = {
        k: g for k, g in total.homology_all().items() if not g.is_trivial
    }
    assert groups == expected


def test_cech_three_point_stage_zero():
    x = cech_object(3, 2)
    assert tot_n(x, 0) == x.levels[0]
    assert matching_kernel_agrees(x, 0)
    assert matching_kernel_agrees(x, 1)


def test_cech_matching_kernel_explicit():
    x = cech_object(2, 1)
    mo = matching_object(x, 0)
    assert mo.complex == x.levels[0]
    # collapse of (a, b) hits the diagonal coordinates only
    assert mo.canonical.component(0) == IntMatrix.from_rows(
        [[1, 0, 0, 0], [0, 0, 0, 1]]
    )


# -- validator negatives --------------------------------------------------------


def _perturb_coface(x, level, index, degree, cell):
    data = cosimplicial_to_data(x)
    key = str(degree)
    rows = data["cofaces"][level][index].setdefault(key, [
        [0] * x.levels[level].rank(degree)
        for _ in range(x.levels[level + 1].rank(degree))
    ])
    rows[cell[0]][cell[1]] += 1
    return cosimplicial_from_data(data)


def test_validator_names_broken_coface_identity():
    x = cech_object(2, 2)
    bad = _perturb_coface(x, 0, 0, 0, (0, 1))
    ok, violations = validate_cosimplicial(bad)
    assert not ok
    assert any("d^" in v for v in violations)


def test_validator_names_broken_codegeneracy():
    x = cech_object(2, 2)
    data = cosimplicial_to_data(x)
    data["codegeneracies"][1][0]["0"][0][0] += 1
    bad = cosimplicial_from_data(data)
    ok, violations = validate_cosimplicial(bad)
    assert not ok
    assert any("s^" in v for v in violations)


# -- the identities and the coface sum as they were computed before products
# were compared cell by cell, kept verbatim as the differential references

def reference_validate(x: CosimplicialChain):
    """Check every cosimplicial identity by matrix multiplication.

    Returns (ok, violations); each violation names the identity and the
    level it fails at.  Chain-map commuting is checked as a map is read
    from JSON, so only the simplicial relations are at stake.
    """
    violations = []
    m = x.truncation
    for k in range(m - 1):
        for i in range(k + 2):
            for j in range(i + 1, k + 3):
                lhs = compose(x.coface(k + 1, j), x.coface(k, i))
                rhs = compose(x.coface(k + 1, i), x.coface(k, j - 1))
                if lhs != rhs:
                    violations.append(
                        f"d^{j} d^{i} != d^{i} d^{j - 1} out of level {k}"
                    )
    for k in range(2, m + 1):
        for i in range(k - 1):
            for j in range(i, k - 1):
                lhs = compose(x.codegeneracy(k - 1, j), x.codegeneracy(k, i))
                rhs = compose(x.codegeneracy(k - 1, i),
                              x.codegeneracy(k, j + 1))
                if lhs != rhs:
                    violations.append(
                        f"s^{j} s^{i} != s^{i} s^{j + 1} out of level {k}"
                    )
    for k in range(m):
        ident = identity_chain_map(x.levels[k])
        for i in range(k + 2):
            for j in range(k + 1):
                lhs = compose(x.codegeneracy(k + 1, j), x.coface(k, i))
                if i == j or i == j + 1:
                    rhs = ident
                    label = f"s^{j} d^{i} != id at level {k}"
                elif i < j:
                    rhs = compose(x.coface(k - 1, i),
                                  x.codegeneracy(k, j - 1))
                    label = f"s^{j} d^{i} != d^{i} s^{j - 1} at level {k}"
                else:
                    rhs = compose(x.coface(k - 1, i - 1),
                                  x.codegeneracy(k, j))
                    label = f"s^{j} d^{i} != d^{i - 1} s^{j} at level {k}"
                if lhs != rhs:
                    violations.append(label)
    return (not violations), tuple(violations)


def reference_coface_sum(x: CosimplicialChain, s: int):
    """Alternating coface sum X^s -> X^{s+1}."""
    total = x.coface(s, 0)
    for i in range(1, s + 2):
        term = x.coface(s, i)
        total = add(total, term if i % 2 == 0 else negate(term))
    return total


@pytest.mark.parametrize("x", [
    pytest.param(obj.x, id=obj.name) for obj in OBJECTS
] + [
    pytest.param(cech_object(n, m), id=f"cech-{n}-{m}")
    for n in range(1, 5) for m in range(1, 5)
])
def test_identities_and_coface_sums_match_the_references(x):
    assert validate_cosimplicial(x) == reference_validate(x)
    for s in range(x.truncation):
        assert cosimplicial.coface_sum(x, s) == reference_coface_sum(x, s)


def single_cell_perturbations(x):
    """x with one cell of one coface or codegeneracy raised by 1, for each
    cell of each degree the map's two levels share."""
    for table in ("cofaces", "codegeneracies"):
        maps = getattr(x, table)
        for k, row in enumerate(maps):
            for i, f in enumerate(row):
                for t in f.src.degrees():
                    ncols = f.src.rank(t)
                    for a in range(f.dst.rank(t)):
                        for b in range(ncols):
                            rows = f.component(t).to_rows()
                            rows[a][b] += 1
                            comps = dict(f.comps)
                            comps[t] = IntMatrix.from_rows(rows, ncols)
                            g = chain_map(f.src, f.dst, comps)
                            changed = row[:i] + (g,) + row[i + 1:]
                            yield CosimplicialChain(**{
                                "levels": x.levels,
                                "cofaces": x.cofaces,
                                "codegeneracies": x.codegeneracies,
                                table: maps[:k] + (changed,) + maps[k + 1:],
                            })


@pytest.mark.parametrize("x", [
    pytest.param(cech_object(2, 2), id="cech-2-2"),
] + [
    pytest.param(obj.x, id=obj.name) for obj in CORPUS
    if obj.name in ("blocks-0", "blocks-11")
])
def test_validator_matches_the_reference_on_every_single_cell_change(x):
    broken = 0
    for y in single_cell_perturbations(x):
        got = validate_cosimplicial(y)
        assert got == reference_validate(y)
        broken += not got[0]
    assert broken > 50


def test_a_coface_zero_in_one_degree_breaks_the_identities_there(
        tmp_path, capsys):
    # with zero boundaries the map stays a chain map, but every identity
    # through d^0 out of level 1 now has one side zero in degree 0 and the
    # other side not
    data = cosimplicial_to_data(cech_object(2, 2))
    del data["cofaces"][1][0]["0"]
    x = cosimplicial_from_data(data)
    want = reference_validate(x)
    assert not want[0]
    assert validate_cosimplicial(x) == want
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(data))
    assert main(["tot", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == ("invariant violation: cosimplicial identities fail: "
                   + "; ".join(want[1][:3]) + "\n")


# -- corpus-wide structure checks ------------------------------------------------


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_identities_hold(obj):
    ok, violations = validate_cosimplicial(obj.x)
    assert ok, violations


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_conormalization_recovers_input(obj):
    conorm = conormalize(obj.x)
    assert conorm.pieces == obj.pieces
    assert conorm.deltas == obj.deltas


@pytest.mark.parametrize("x", [obj.x for obj in CORPUS] + [
    cech_object(n, top) for n in (1, 2, 3) for top in (1, 2, 3)
] + [obj.x for obj in SIGNED])
def test_cached_conormalization_is_conormalize(x):
    assert x.conormalization == conormalize(x)
    assert x.conormalization is x.conormalization


def test_one_conormalization_per_object(monkeypatch):
    """The example session of the README, plus a stage and the matching
    check, conormalizes its object once."""
    calls = []

    def counted(x):
        calls.append(x)
        return conormalize(x)

    monkeypatch.setattr(cosimplicial, "conormalize", counted)
    x = cech_object(3, 2)
    tot_n(x, 2).homology_all()
    tower_fiber(x, 1, 2).homology_all()
    spectral_sequence(x).to_data()
    tot_n(x, 1)
    assert matching_kernel_agrees(x, 1)
    assert calls == [x]


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_matching_kernels(obj):
    for m in range(obj.x.truncation):
        assert matching_kernel_agrees(obj.x, m)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cech_matching_kernels(n):
    for top in range(1, 5):
        x = cech_object(n, top)
        for m in range(top):
            assert matching_kernel_agrees(x, m)


def test_matching_oracle_catches_a_lost_codegeneracy(monkeypatch, tmp_path,
                                                     capsys):
    """With conormalize intersecting the kernels of only s - 1 of the s
    codegeneracies, tot still exits 0 on some objects; on at least one of
    them the matching route, which reads the faulty conormalization
    through its embeddings, disagrees."""
    kernel_of_stack = cosimplicial._kernel_of_stack
    monkeypatch.setattr(
        cosimplicial, "_kernel_of_stack",
        lambda mats, width: kernel_of_stack(list(mats)[:-1], width))
    caught = []
    for obj in OBJECTS:
        path = tmp_path / f"{obj.name}.json"
        path.write_text(json.dumps(cosimplicial_to_data(obj.x)))
        if main(["tot", str(path)]) != 0:
            continue
        # a new object, so no conormalization cached before the fault
        x = CosimplicialChain(obj.x.levels, obj.x.cofaces,
                              obj.x.codegeneracies)
        if not all(matching_kernel_agrees(x, m)
                   for m in range(x.truncation)):
            caught.append(obj.name)
    capsys.readouterr()
    assert caught


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_stage_zero_is_level_zero(obj):
    assert tot_n(obj.x, 0) == trim_ends(obj.x.levels[0])


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_adjacent_fiber_is_piece(obj):
    """The fiber over one tower step is the next conormalized piece,
    reindexed; homology groups must agree on the nose."""
    conorm = obj.x.conormalization
    for m in range(1, obj.x.truncation + 1):
        fib = tower_fiber(obj.x, m - 1, m)
        piece = conorm.pieces[m]
        assert groups_agree(fib.homology_all(), piece.homology_all(),
                            offset=-m)
        for k in fib.degrees():
            assert fib.rank(k) == piece.rank(k + m)


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_fiber_includes_into_stage(obj):
    """The stripes > n of stage m are a subcomplex equal to the fiber of
    Tot_m -> Tot_n, and the stage projections down to n kill it.

    The constructors trust their callers, so the commuting of the maps
    and the square-zero law of stages and fibers, which rests on the
    stripe signs, are checked here.  The products check the shapes."""
    conorm = obj.x.conormalization
    for m in range(1, obj.x.truncation + 1):
        stage = tot_n(obj.x, m)
        stage.check_square_zero()
        stage_projection(obj.x, m).check_commutes()
        win = ReferenceWindow(conorm, -1, m)
        for n in range(m):
            fib = tower_fiber(obj.x, n, m)
            fib.check_square_zero()
            incl = chain_map(fib, stage, {
                k: stripe_tail(win, n + 1, k) for k in win.blocks
            })
            incl.check_commutes()
            down = incl
            for j in range(m, n, -1):
                down = compose(stage_projection(obj.x, j), down)
            assert not down.comps


@pytest.mark.parametrize("x", [obj.x for obj in OBJECTS] + [
    cech_object(3, 3), cech_object(2, 4)])
def test_every_window_is_cut_from_the_total_layout(x):
    """Every window -1 <= a <= b <= M of the one layout equals the window
    with a differential of its own: degrees, ranks and boundary matrices.
    The full layout's blocks and differential, out to one degree past
    each end, equal those of the widest reference window."""
    conorm = x.conormalization
    total = conorm.total
    assert conorm.total is total
    top = x.truncation
    for a in range(-1, top + 1):
        for b in range(a, top + 1):
            got = total.window(a, b)
            want = ReferenceWindow(conorm, a, b).complex()
            assert (got.lo, got.ranks, got.boundaries) == \
                (want.lo, want.ranks, want.boundaries), (a, b)
    ref = ReferenceWindow(conorm, -1, top)
    assert total.blocks == ref.blocks
    for k in range(min(ref.blocks) - 1, max(ref.blocks) + 2):
        assert total.boundary(k) == ref.boundary(k), k
        assert total.rank(k) == ref.rank(k)
        for s in range(-1, top + 3):
            assert total.start(s, k) == ref.start(s, k)


def test_a_report_lays_out_the_stripes_once(tmp_path, capsys, monkeypatch):
    """tot on the Cech object of 4 points with truncation 4 (the ss_cech
    benchmark object) reads 5 stages and 4 fibers, and ss reads its
    filtration: each builds one stripe layout and each degree of its
    differential once."""
    path = tmp_path / "cech_4_4.json"
    path.write_text(json.dumps(cosimplicial_to_data(cech_object(4, 4))))
    layout = cosimplicial.StripeWindow
    init, boundary = layout.__init__, layout.boundary
    layouts, built = [], []

    def counting_init(self, *args):
        layouts.append(self)
        init(self, *args)

    def counting_boundary(self, k):
        if k not in self._boundaries:
            built.append(k)
        return boundary(self, k)
    monkeypatch.setattr(layout, "__init__", counting_init)
    monkeypatch.setattr(layout, "boundary", counting_boundary)
    for command in ("tot", "ss"):
        layouts.clear()
        built.clear()
        assert main([command, str(path)]) == 0
        capsys.readouterr()
        assert len(layouts) == 1, command
        assert sorted(built) == sorted(set(built)), command
        # the levels sit in chain degree 0, so tot degrees run -4..0
        assert set(range(-3, 1)) <= set(built) <= set(range(-4, 2))


def test_tower_stage_ranks_are_stripe_sums():
    obj = next(o for o in CORPUS if o.name.startswith("blocks")
               and o.x.truncation >= 2)
    conorm = conormalize(obj.x)
    for n in range(obj.x.truncation + 1):
        stage = tot_n(obj.x, n)
        for k in stage.degrees():
            expected = sum(
                conorm.pieces[s].rank(k + s) for s in range(n + 1)
            )
            assert stage.rank(k) == expected


def test_fiber_zero_when_stages_equal():
    obj = CORPUS[0]
    for n in range(obj.x.truncation + 1):
        assert tower_fiber(obj.x, n, n) == ZERO_COMPLEX


def test_fiber_argument_validation():
    obj = CORPUS[0]
    with pytest.raises(InputError):
        tower_fiber(obj.x, 2, 1)
    with pytest.raises(InputError):
        tower_fiber(obj.x, 0, obj.x.truncation + 1)
    with pytest.raises(InputError):
        tot_n(obj.x, -1)


# -- locality of tower fibers ----------------------------------------------------


def _zero_like(piece):
    return ChainComplexInt(
        piece.lo, (0,) * len(piece.ranks),
        tuple(IntMatrix.zeros(0, 0) for _ in piece.boundaries),
    )


def _replace_outside_window(obj, n, m, fatten):
    """New piece system agreeing with obj's strictly inside (n, m]."""
    pieces = list(obj.pieces)
    deltas = list(obj.deltas)
    for j in range(len(pieces)):
        if not n < j <= m:
            if fatten:
                cone = ChainComplexInt(
                    pieces[j].lo, (1, 1), (IntMatrix.identity(1),)
                )
                pieces[j] = direct_sum(pieces[j], cone)
            else:
                pieces[j] = _zero_like(pieces[j])
    for s in range(len(deltas)):
        if not (n < s and s + 1 <= m):
            deltas[s] = chain_map(pieces[s], pieces[s + 1], {})
        else:
            deltas[s] = chain_map(
                pieces[s], pieces[s + 1],
                {k: mat for k, mat in deltas[s].comps},
            )
    return gamma_co(tuple(pieces), tuple(deltas))


@pytest.mark.parametrize("fatten", [False, True],
                         ids=["outside-zeroed", "outside-fattened"])
def test_fiber_reads_only_its_window(fatten):
    checked = 0
    for obj in CORPUS:
        if not obj.name.startswith("blocks") or obj.x.truncation < 2:
            continue
        truncation = obj.x.truncation
        for n, m in ((0, truncation - 1), (1, truncation)):
            if not n < m:
                continue
            other = _replace_outside_window(obj, n, m, fatten)
            assert tower_fiber(obj.x, n, m) == tower_fiber(other, n, m)
            checked += 1
    assert checked >= 4


# -- shifting --------------------------------------------------------------------


@pytest.mark.parametrize("j", [-3, -1, 1, 2, 3])
def test_shift_moves_fiber_homology(j):
    obj = next(o for o in CORPUS if o.name.startswith("blocks"))
    truncation = obj.x.truncation
    assert shift_check(obj.x, 0, truncation, j)
    assert shift_check(obj.x, truncation - 1, truncation, j)


def test_shift_object_levels():
    obj = CORPUS[0]
    y = shift_object(obj.x, 2)
    assert y.levels[0] == shift(obj.x.levels[0], 2)
    ok, _ = validate_cosimplicial(y)
    assert ok


# -- quasi-isomorphism invariance -------------------------------------------------


def test_identity_map_is_quasi_iso_on_fibers():
    obj = CORPUS[0]
    ident = CosimplicialMap(obj.x, obj.x, tuple(
        identity_chain_map(level) for level in obj.x.levels
    ))
    assert quasi_iso_invariance(ident)


def test_generated_quasi_isos_pass():
    for f in quasi_iso_pairs(seed=77, count=4):
        assert quasi_iso_invariance(f)


def test_non_quasi_iso_rejected():
    line = ChainComplexInt(0, (1,), ())
    nothing = ChainComplexInt(0, (0,), ())
    src = constant_object(line, 1)
    dst = constant_object(nothing, 1)
    zero = chain_map(line, nothing, {})
    f = CosimplicialMap(src, dst, (zero, zero))
    with pytest.raises(PreconditionError):
        quasi_iso_invariance(f)


# -- serialization and input validation --------------------------------------------


def test_serialization_roundtrip():
    obj = next(o for o in CORPUS if o.name.startswith("blocks"))
    data = json.loads(json.dumps(cosimplicial_to_data(obj.x)))
    assert cosimplicial_from_data(data) == obj.x


def _degree_tables(data):
    for name in ("cofaces", "codegeneracies"):
        for row in data[name]:
            yield from row


def reference_hook(obj):
    """The json object hook CosimplicialDecoder replaced, kept verbatim as
    its reference: each value of a degree table through from_rows."""
    try:
        for key in obj:
            degree_key(key)
    except InputError:
        return obj
    for key, rows in obj.items():
        try:
            obj[key] = IntMatrix.from_rows(rows)
        except InputError:
            pass
    return obj


def reference_parse(text):
    return json.loads(text, object_hook=reference_hook)


def decode(text):
    return json.loads(text, cls=CosimplicialDecoder)


def typed(value):
    """value with the JSON type of every scalar spelled out, so that 1,
    1.0 and true differ, and a matrix by its shape and entries."""
    if type(value) is IntMatrix:
        return ("matrix", value.shape,
                [(i, j, type(v), v) for i, j, v in value.entries])
    if type(value) is list:
        return [typed(v) for v in value]
    if type(value) is dict:
        return [(k, typed(v)) for k, v in value.items()]
    return (type(value), repr(value))


SPELLINGS = {
    "default": {},
    "compact": {"separators": (",", ":")},
    "indent": {"indent": 1},
}


def test_hook_reads_what_the_plain_parse_reads(monkeypatch):
    """Every corpus object and every cech_object up to (4, 4), written in
    each spelling, reads through CosimplicialDecoder as json.loads with
    the reference hook reads it, and every degree-table value is built.
    The default and compact rows are read by string operations alone:
    from_rows is never called for them."""
    objects = [obj.x for obj in corpus(seed=20250811, count=20)] + [
        cech_object(n, top) for n in range(1, 5) for top in range(5)
    ]
    from_rows = IntMatrix.from_rows.__func__
    calls = []

    def counted(cls, rows, ncols=None):
        calls.append(rows)
        return from_rows(cls, rows, ncols)

    monkeypatch.setattr(IntMatrix, "from_rows", classmethod(counted))
    for x in objects:
        data = cosimplicial_to_data(x)
        for spelling, options in SPELLINGS.items():
            text = json.dumps(data, **options)
            calls.clear()
            read = decode(text)
            if spelling != "indent":
                assert calls == [], spelling
            for table in _degree_tables(read):
                assert all(type(v) is IntMatrix for v in table.values())
            assert typed(read) == typed(reference_parse(text))
        assert cosimplicial_from_data(read) == x


def _read_error(text, parse):
    with pytest.raises(InputError) as info:
        cosimplicial_from_data(parse(text))
    return str(info.value)


@pytest.mark.parametrize("table", [
    {"0": [[1, 0, 0, 1]] * 9},                   # too many columns
    {"0": [[1], [0], [0], [1]]},                 # too few columns
    {"0": [[1, 0, 0], [0, 1, 0]]},               # too few rows
    {"0": []},                                   # no rows at all
    {"0": [[1, 0, 0], [0, True, 0]] * 2},        # a boolean cell
    {"0": [[1, 0, 0], [0, 1]] * 2},              # a ragged row
    {"+0": [[1, 0, 0]] * 9, "0": [[1, 0, 0]] * 9},  # a bad key
    {"1": [[1, 0, 0]] * 4},                      # a key outside both levels
    {"0": [[1, 0, 0]] * 4, "x": 1},              # a key read after rows
    {"0": [[1.0, 0, 0]] * 4},                    # a float cell
    {"0": [[]] * 4},                             # rows of no cells
])
def test_hook_keeps_every_read_error(table):
    """A malformed map is refused with the same message by the decoder,
    by the reference hook and by the plain parse, in each spelling."""
    data = cosimplicial_to_data(cech_object(3, 1))
    data["cofaces"][0][0] = table
    for options in SPELLINGS.values():
        text = json.dumps(data, **options)
        expected = _read_error(text, json.loads)
        assert _read_error(text, reference_parse) == expected
        assert _read_error(text, decode) == expected


# cell spellings the string path must refuse or read exactly as JSON does
ODD_CELLS = ["-0", "01", "-01", "1.0", "1e0", "0e1", "0.0", "true", "false",
             "null", '"1"', '"0"', "[1]", "[]", "[0, 1]", "{}", "NaN",
             "Infinity", "-", "+1", " 1", "1 ", "0 ", "", "1,", "00",
             "1" * 19, "-" + "9" * 18, "9" * 4400]
cells = st.one_of(
    st.just("0"), st.just("0"),
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.integers(-3, 3).map(str),
    st.sampled_from(ODD_CELLS),
)
separators = st.sampled_from([", ", ",", ", ", ",", " , ", ",\n", ",  "])


@st.composite
def table_values(draw):
    """The text of a degree-table value: half of them rows of one width
    of integers as json.dumps writes them, one cell in two of those
    replaced by an odd one; the rest odd spacing, ragged rows and odd
    cells mixed."""
    if draw(st.booleans()):
        sep = draw(st.sampled_from([", ", ","]))
        width = draw(st.integers(1, 6))
        rows = draw(st.lists(st.lists(
            st.one_of(st.just(0), st.integers(-2 ** 70, 2 ** 70)),
            min_size=width, max_size=width), min_size=1, max_size=5))
        text = json.dumps(rows, separators=(sep, ": "))
        if draw(st.booleans()):
            cell = draw(st.sampled_from(ODD_CELLS))
            spots = [m.start() for m in re.finditer(r"-?[0-9]+", text)]
            at = draw(st.sampled_from(spots))
            end = re.match(r"-?[0-9]+", text[at:]).end() + at
            text = text[:at] + cell + text[end:]
        return text
    width = draw(st.integers(0, 6))
    sep = draw(separators)
    rows = draw(st.lists(
        st.lists(cells, min_size=width, max_size=width)
        | st.lists(cells, max_size=7),
        max_size=5,
    ))
    row_sep = draw(st.sampled_from([sep, ", ", ",", " ,"]))
    inner = row_sep.join(
        "[" + draw(st.sampled_from([sep, ", ", ","])).join(row) + "]"
        for row in rows)
    return draw(st.sampled_from(["[{}]", "[ {} ]", "[[{}]]", "{}"])
                ).format(inner)


@st.composite
def documents(draw):
    keys = st.sampled_from(["0", "1", "-1", "2", "0", "1", "x", "01", "+1"])
    pairs = draw(st.lists(st.tuples(keys, table_values()), max_size=3))
    table = "{" + ", ".join(
        json.dumps(k) + ": " + v for k, v in pairs) + "}"
    depth = draw(st.integers(0, 6))
    return ('{"cofaces": ' + "[" * depth + table + "]" * depth + "}"
            if depth else table)


@settings(max_examples=200)
@given(documents(), st.data())
def test_decoder_reads_what_json_loads_reads(text, data):
    """The decoder against json.loads with the reference hook, on whole
    documents and on a cut of each: the same values, JSON types and
    matrices, or the same JSONDecodeError."""
    cut = data.draw(st.integers(0, len(text)))
    for doc in (text, text[:cut]):
        try:
            expected = reference_parse(doc)
        except ValueError as exc:  # JSONDecodeError, or too many digits
            with pytest.raises(type(exc)) as info:
                decode(doc)
            assert str(info.value) == str(exc)
            continue
        assert typed(decode(doc)) == typed(expected)


def test_decoder_reads_matrices_from_dense_rows():
    read = decode('{"0": [[0, -12, 0], [3, 0, 0]], "1": [[0,0],[0,7]], '
                  '"2": [[1]], "3": [[0]], "4": [[12345678901234567890]]}')
    assert read["0"] == IntMatrix(2, 3, ((0, 1, -12), (1, 0, 3)))
    assert read["1"] == IntMatrix(2, 2, ((1, 1, 7),))
    assert read["2"] == IntMatrix.identity(1)
    assert read["3"] == IntMatrix.zeros(1, 1)
    assert read["4"].entries == ((0, 0, 12345678901234567890),)
    # a table with another key keeps its rows as parsed
    assert decode('{"0": [[0, 1]], "x": 1}') == {"0": [[0, 1]], "x": 1}


# -- the two dense-row readers before the one that steps from cell to cell,
# kept verbatim as the differential references, with what they took from
# cosimplicial: _ZERO_CELLS, the zeros of a row of MAX_RANK cells, and
# _NONZERO_CELL, a whole cell in the form json.dumps writes a nonzero int

_ZERO_CELLS = {sep: ("0" + sep) * MAX_RANK for sep in (", ", ",")}
_NONZERO_CELL = re.compile(r"-?[1-9][0-9]{0,17}").fullmatch


# the reader as it was before it searched for "1" and "-": it marks every
# row whole

def reference_dense_rows(s: str, idx: int):
    """(IntMatrix, end) for the rows of integers at s[idx:], written as
    json.dumps writes them with either separator, or None.

    Row by row, string operations find the row's end and each nonzero
    cell, and the zeros between nonzero cells are compared with a slice
    of _ZERO_CELLS, so no object is made for a zero cell.  Rows in any
    other spelling, ragged rows and empty rows give None, and the caller
    parses the value as JSON.  Only slices are taken, so nothing here
    raises, and no search runs past the end of the row it reads."""
    comma = s.find(",", idx, s.find("]", idx) + 2)
    sep = ", " if s.startswith(", ", comma) else ","
    zeros = _ZERO_CELLS[sep]
    width = len(sep)
    stride = width + 1
    entries = []
    ncols = None
    i = 0
    p = idx + 1  # the opening bracket of row i
    while s.startswith("[", p):
        end = s.find("]", p)
        if end < 0:
            return None
        row = s[p + 1:end]
        marks = row.translate(_MARK_NONZERO)
        stop = len(row)
        pos = j = 0
        while True:
            a = marks.find("-", pos)
            if a < 0:  # zero cells up to the end of the row
                n = stop - pos
                if not n or (n + width) % stride or not zeros.startswith(
                        row[pos:]):
                    return None
                j += (n + width) // stride
                break
            n = a - pos
            if n % stride or not zeros.startswith(row[pos:a]):
                return None
            j += n // stride
            b = row.find(",", a)
            if b < 0:
                b = stop
            cell = row[a:b]
            if not _NONZERO_CELL(cell):
                return None
            entries.append((i, j, int(cell)))
            j += 1
            if b == stop:
                break
            if not row.startswith(sep, b):
                return None
            pos = b + width
        if ncols is None:
            ncols = j
        elif j != ncols:
            return None
        i += 1
        if s.startswith("]", end + 1):
            return IntMatrix(i, ncols, tuple(entries)), end + 2
        if not s.startswith(sep, end + 1):
            return None
        p = end + 1 + width
    return None


# the reader as it was before it stepped from cell to cell: row by row, it
# guessed the next nonzero cell as the nearer "1" or "-"

def previous_dense_rows(s: str, idx: int):
    """(IntMatrix, end) for the rows of integers at s[idx:], written as
    json.dumps writes them with either separator, or None.

    Row by row, string operations find the row's end and each nonzero
    cell, and the zeros between nonzero cells are compared with a slice
    of _ZERO_CELLS, so no object is made for a zero cell.  The next
    nonzero cell is guessed as the nearer "1" or "-", and both positions
    are kept until the reading passes them.  A guess is sure once the
    zeros in front of it check: they hold no other digit.  Where they do
    not check, the rest of the row is marked by _MARK_NONZERO and read
    cell by cell from the marks.  Rows in any other spelling, ragged
    rows and empty rows give None, and the caller parses the value as
    JSON.  Only slices are taken, so nothing here raises, and no search
    runs past the end of the row it reads."""
    comma = s.find(",", idx, s.find("]", idx) + 2)
    sep = ", " if s.startswith(", ", comma) else ","
    zeros = _ZERO_CELLS[sep]
    width = len(sep)
    stride = width + 1
    entries = []
    ncols = None
    i = 0
    one = minus = -1  # the next "1" and "-" of the row, or its end
    p = idx + 1  # the opening bracket of row i
    while s.startswith("[", p):
        end = s.find("]", p)
        if end < 0:
            return None
        marks = None
        pos = p + 1
        j = 0
        while True:
            if marks is not None:
                a = marks.find("-", pos - base)
                a = end if a < 0 else a + base
            else:
                if one < pos:
                    one = s.find("1", pos, end)
                    if one < 0:
                        one = end
                if minus < pos:
                    minus = s.find("-", pos, end)
                    if minus < 0:
                        minus = end
                a = one if one < minus else minus
            n = a - pos
            if a == end:  # zero cells up to the end of the row
                if n and not (n + width) % stride and zeros.startswith(
                        s[pos:end]):
                    j += (n + width) // stride
                    break
            elif not n % stride and zeros.startswith(s[pos:a]):
                j += n // stride
                b = s.find(",", a, end)
                if b < 0:
                    b = end
                cell = s[a:b]
                if not _NONZERO_CELL(cell):
                    return None
                entries.append((i, j, int(cell)))
                j += 1
                if b == end:
                    break
                if not s.startswith(sep, b):
                    return None
                pos = b + width
                continue
            # The zeros before a guess do not check, perhaps for a digit
            # 2..9: the rest of the row is read from marks, and a zero
            # run that does not check there refuses the rows.
            if marks is not None:
                return None
            base = pos
            marks = s[pos:end].translate(_MARK_NONZERO)
        if ncols is None:
            ncols = j
        elif j != ncols:
            return None
        i += 1
        if s.startswith("]", end + 1):
            return IntMatrix(i, ncols, tuple(entries)), end + 2
        if not s.startswith(sep, end + 1):
            return None
        p = end + 1 + width
    return None


def dense_read(text):
    """What _dense_rows, the previous reader and the reference read at the
    start of text."""
    return (cosimplicial._dense_rows(text, 0), previous_dense_rows(text, 0),
            reference_dense_rows(text, 0))


# cells the guess for the next nonzero cell can meet: a "1" or a "-" that
# starts a cell, one inside a cell, a digit 2..9 that hides a later "1"
MIXED_CELLS = ["0", "1", "-1", *map(str, range(2, 10)), "-7", "10", "-0",
               "01", "1.0", "1" * 19]
# text after the rows; the last two hold a "1" and a "-" the search for the
# next nonzero cell can reach
TAILS = ["", "}", ", [[1]]}", "]", ', "1": [[1]]}', ', "x": "-1"}']


@st.composite
def mixed_rows(draw):
    """Rows of one width up to 40, in one of the two separators json.dumps
    writes, with text after them.  A row is mostly zeros with MIXED_CELLS,
    all zeros, zeros with one MIXED_CELLS cell in the first or the last
    column, or a digit 2..9 followed by zeros."""
    sep = draw(st.sampled_from([", ", ","]))
    width = draw(st.integers(1, 40))
    zero = ["0"] * width
    cell = st.one_of(st.just("0"), st.just("0"), st.just("0"),
                     st.sampled_from(MIXED_CELLS))
    row = st.one_of(
        st.lists(cell, min_size=width, max_size=width),
        st.just(zero),
        st.sampled_from(MIXED_CELLS).map(lambda c: [c] + zero[1:]),
        st.sampled_from(MIXED_CELLS).map(lambda c: zero[1:] + [c]),
        st.sampled_from("23456789").map(lambda c: [c] + zero[1:]),
    )
    rows = draw(st.lists(row, min_size=1, max_size=6))
    tail = draw(st.sampled_from(TAILS))
    return "[" + sep.join("[" + sep.join(row) + "]" for row in rows) + "]" \
        + tail


@settings(max_examples=300)
@given(st.one_of(table_values(), mixed_rows()), st.data())
def test_dense_rows_reads_what_the_reference_reads(text, data):
    """The same (IntMatrix, end), or None, on a text and on a cut of it."""
    cut = data.draw(st.integers(0, len(text)))
    for doc in (text, text[:cut]):
        new, previous, reference = dense_read(doc)
        assert new == previous == reference, doc


@pytest.mark.parametrize("text, rows", [
    ("[[0, 2, 0, 1], [0, 0, 0, 1]]", [[0, 2, 0, 1], [0, 0, 0, 1]]),
    ("[[3,1],[0,1]]", [[3, 1], [0, 1]]),
    ("[[0, 0, 5, 0, -1, 1]]", [[0, 0, 5, 0, -1, 1]]),
    ("[[1, 9, 1], [0, 0, 0]]", [[1, 9, 1], [0, 0, 0]]),
    ("[[21, 1], [-21, 0]]", [[21, 1], [-21, 0]]),
    ("[[0, 0], [4, 0], [0, 1]]", [[0, 0], [4, 0], [0, 1]]),
    ("[[0, 2, 0, 1.0]]", None),
    ("[[0, 2, 0, 01]]", None),
    ("[[7, 0, 0], [1, 0]]", None),
])
def test_dense_rows_reads_a_digit_before_the_guess(text, rows):
    """A cell of first digit 2..9 in front of a "1" is read, and what
    follows it is refused as before."""
    new, previous, reference = dense_read(text)
    assert new == previous == reference
    if rows is None:
        assert new is None
    else:
        assert new == (IntMatrix.from_rows(rows), len(text))


Z4 = "[0, 0, 0], " * 4  # four zero rows: two bounds of the search
ZERO_ROWS = [[0] * 3] * 4


@pytest.mark.parametrize("text, rows", [
    ("[" + Z4 + "[3, 0, 0], [0, 0, 1]]", ZERO_ROWS + [[3, 0, 0], [0, 0, 1]]),
    ("[" + Z4.replace(" ", "") + "[0,0,7]], [[1]]", ZERO_ROWS + [[0, 0, 7]]),
    ("[" + Z4 + '[0, 0, 0]], "1": [[1]]}', ZERO_ROWS + [[0, 0, 0]]),
    ("[[1, 0, 0], " + Z4 + "[0, 0, -1]]",
     [[1, 0, 0]] + ZERO_ROWS + [[0, 0, -1]]),
    ("[" + Z4[:-2] + '], "x": "-1"}', ZERO_ROWS),
    ("[" + Z4 + "[0, 0]], [[1]]", None),
    ("[" + Z4 + "[0, 0, 0, 0]]", None),
    ("[" + Z4 + "[0, 0, 0]", None),
    ("[[0, 11, -999999999999999999]]", [[0, 11, -999999999999999999]]),
    ("[[0,10,0,0,999999999999999999],[0,0,0,0,0],[0,0,0,0,0]]",
     [[0, 10, 0, 0, 999999999999999999], [0] * 5, [0] * 5]),
    ("[[0, 0],1[0, 0]]", None),
    ("[[0, 0]1, [0, 0]]", None),
    ("[[0, 0], 1[0, 0]]", None),
    ("[[0, 0], [0,1 0]]", None),
])
def test_dense_rows_reads_against_the_template(text, rows):
    """Zero rows past the bound of a search for the next nonzero cell,
    then a cell, the end of the value, a ragged row or the end of the
    text; a long cell, which moves the template, so that a search bound
    set before it stops on the last bracket of the value; a nonzero digit
    where the template has a separator or a bracket."""
    new, previous, reference = dense_read(text)
    assert new == previous == reference
    if rows is None:
        assert new is None
    else:
        assert new == (IntMatrix.from_rows(rows), text.index("]]") + 2)


def test_rows_whose_separator_changes_after_a_nonzero_cell():
    """", " up to a nonzero cell and "," after it: the dense reader
    refuses the rows, and the decoder reads them as json.loads does."""
    text = '{"0": [[0, 2,0], [0, 0, 0]]}'
    assert dense_read(text[6:-1]) == (None, None, None)
    assert typed(decode(text)) == typed(reference_parse(text))
    assert decode(text)["0"] == IntMatrix.from_rows(json.loads(text)["0"])


def test_dense_rows_reads_every_table_as_the_reference_does():
    """Every degree table of the corpus and of cech_object up to (4, 4),
    in the default and the compact spelling."""
    objects = [obj.x for obj in corpus(seed=20250811, count=20)] + [
        cech_object(n, top) for n in range(1, 5) for top in range(5)
    ]
    read = 0
    for x in objects:
        for table in _degree_tables(cosimplicial_to_data(x)):
            for rows in table.values():
                for spelling in ("default", "compact"):
                    text = json.dumps(rows, **SPELLINGS[spelling])
                    new, previous, reference = dense_read(text)
                    assert new == previous == reference
                    assert new == (IntMatrix.from_rows(rows), len(text))
                    read += 1
    assert read


class SearchedText(str):
    """A str that records, for each find and count on it, where the
    search started and where it stopped: just past the match found, or
    at the end of its range."""

    def find(self, sub, start=0, end=None):
        hit = str.find(self, sub, start, end)
        stop = len(self) if end is None else min(end, len(self))
        self.searched.append((start, hit + len(sub) if hit >= 0 else stop))
        return hit

    def count(self, sub, start=0, end=None):
        self.searched.append(
            (start, len(self) if end is None else min(end, len(self))))
        return str.count(self, sub, start, end)


def test_dense_rows_searches_stay_near_the_value():
    """A one-hot 200 x 200 value followed by 1 MB of text with no "1" and
    no "-": no search ends more than two row periods past the value, and
    the searches cover at most three times its length."""
    rows = [[int(j == 7 * i % 200) for j in range(200)] for i in range(200)]
    value = json.dumps(rows)
    text = SearchedText(value + ', "x": "' + "0" * (1 << 20) + '"}')
    text.searched = []
    assert cosimplicial._dense_rows(text, 0) == (
        IntMatrix.from_rows(rows), len(value))
    period = len(value) // 200
    assert max(stop for _, stop in text.searched) <= len(value) + 2 * period
    assert sum(stop - start for start, stop in text.searched) \
        <= 3 * len(value)


def test_dense_rows_refuses_a_row_wider_than_max_rank():
    """A first row of MAX_RANK + 1 zero cells gives None, and nothing the
    size of its row is built: the template of three such rows would take
    147 KB."""
    text = "[[" + ", ".join(["0"] * (MAX_RANK + 1)) + "]]"
    tracemalloc.start()
    try:
        assert cosimplicial._dense_rows(text, 0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert decode('{"0": ' + text + "}")["0"] == IntMatrix.zeros(
        1, MAX_RANK + 1)  # the C scanner reads it


def test_serialization_rejects_bad_truncation():
    obj = CORPUS[0]
    data = cosimplicial_to_data(obj.x)
    data["truncation"] += 1
    with pytest.raises(InputError):
        cosimplicial_from_data(data)


def test_constructor_shape_validation():
    c = square_complex()
    ident = identity_chain_map(c)
    with pytest.raises(InputError):
        CosimplicialChain((c, c), ((ident,),), ((ident,),))
    with pytest.raises(InputError):
        CosimplicialChain((c, c), ((ident, ident),), ())
    with pytest.raises(InputError):
        matching_object(constant_object(c, 1), 1)

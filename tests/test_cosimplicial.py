"""Cosimplicial core: identities, conormalization, matching, towers."""

import json

import pytest

from tottower import cosimplicial
from tottower.abelian import HomologyGroup
from tottower.chains import ChainComplexInt, chain_map, identity_chain_map
from tottower.constructions import (
    cech_object,
    constant_object,
    corpus,
    gamma_co,
    quasi_iso_pairs,
)
from tottower.cosimplicial import (
    CosimplicialChain,
    StripeWindow,
    conormalize,
    cosimplicial_from_data,
    cosimplicial_map,
    cosimplicial_to_data,
    degree_table_hook,
    matching_kernel_agrees,
    matching_object,
    quasi_iso_invariance,
    shift_check,
    shift_object,
    tot_n,
    tower,
    tower_fiber,
    validate_cosimplicial,
)
from tottower.errors import InputError, PreconditionError
from tottower.intlinalg import IntMatrix
from tottower.spectral import spectral_sequence

CORPUS = corpus(seed=20250811, count=14)
ZERO_COMPLEX = ChainComplexInt(0, (0,), ())


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
        assert piece.total_rank() == 0


def test_constant_tot_stages_all_equal_base():
    c = square_complex()
    x = constant_object(c, 3)
    tw = tower(x)
    assert all(stage == c for stage in tw.stages)
    for n in range(1, 4):
        proj = tw.projection(n)
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


# -- corpus-wide structure checks ------------------------------------------------


@pytest.mark.parametrize("obj", CORPUS, ids=lambda o: o.name)
def test_corpus_identities_hold(obj):
    ok, violations = validate_cosimplicial(obj.x)
    assert ok, violations


@pytest.mark.parametrize("obj", CORPUS, ids=lambda o: o.name)
def test_corpus_conormalization_recovers_input(obj):
    conorm = conormalize(obj.x)
    assert conorm.pieces == obj.pieces
    assert conorm.deltas == obj.deltas


@pytest.mark.parametrize("x", [obj.x for obj in CORPUS] + [
    cech_object(n, top) for n in (1, 2, 3) for top in (1, 2, 3)
])
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
    tower(x).stage(2).homology_all()
    tower_fiber(x, 1, 2).homology_all()
    spectral_sequence(x).to_data()
    tot_n(x, 1)
    assert matching_kernel_agrees(x, 1)
    assert calls == [x]


@pytest.mark.parametrize("obj", CORPUS, ids=lambda o: o.name)
def test_corpus_matching_kernels(obj):
    for m in range(obj.x.truncation):
        assert matching_kernel_agrees(obj.x, m)


@pytest.mark.parametrize("obj", CORPUS, ids=lambda o: o.name)
def test_corpus_stage_zero_is_level_zero(obj):
    assert tot_n(obj.x, 0) == trim_ends(obj.x.levels[0])


@pytest.mark.parametrize("obj", CORPUS, ids=lambda o: o.name)
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


@pytest.mark.parametrize("obj", CORPUS, ids=lambda o: o.name)
def test_corpus_fiber_includes_into_stage(obj):
    """The stripes > n of stage m are a subcomplex equal to the fiber of
    Tot_m -> Tot_n, and the stage projections down to n kill it.

    The ChainMap constructor checks both the shapes, which ties the
    fiber's ranks to the tail, and the commuting with the boundaries."""
    conorm = obj.x.conormalization
    tw = tower(obj.x)
    for m in range(1, obj.x.truncation + 1):
        win = StripeWindow(conorm, -1, m)
        for n in range(m):
            fib = tower_fiber(obj.x, n, m)
            incl = chain_map(fib, tw.stage(m), {
                k: win.tail(n + 1, k) for k in win.blocks
            })
            down = incl
            for j in range(m, n, -1):
                down = tw.projection(j).compose(down)
            assert down.is_zero


def test_tower_stage_ranks_are_stripe_sums():
    obj = next(o for o in CORPUS if o.name.startswith("blocks")
               and o.x.truncation >= 2)
    conorm = conormalize(obj.x)
    tw = tower(obj.x)
    for n, stage in enumerate(tw.stages):
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
                pieces[j] = pieces[j].direct_sum(cone)
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
    assert y.levels[0] == obj.x.levels[0].shift(2)
    ok, _ = validate_cosimplicial(y)
    assert ok


# -- quasi-isomorphism invariance -------------------------------------------------


def test_identity_map_is_quasi_iso_on_fibers():
    obj = CORPUS[0]
    ident = cosimplicial_map(obj.x, obj.x, tuple(
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
    f = cosimplicial_map(src, dst, (zero, zero))
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


def test_hook_reads_what_the_plain_parse_reads():
    """Every corpus object and every cech_object up to (4, 4), parsed with
    degree_table_hook, reads as the same text parsed without it, and the
    parse leaves no degree-table value unbuilt."""
    objects = [obj.x for obj in corpus(seed=20250811, count=20)] + [
        cech_object(n, top) for n in range(1, 5) for top in range(5)
    ]
    for x in objects:
        text = json.dumps(cosimplicial_to_data(x))
        hooked = json.loads(text, object_hook=degree_table_hook)
        for table in _degree_tables(hooked):
            assert all(type(v) is IntMatrix for v in table.values())
        plain = cosimplicial_from_data(json.loads(text))
        assert cosimplicial_from_data(hooked) == plain == x


def _read_error(text, object_hook):
    with pytest.raises(InputError) as info:
        cosimplicial_from_data(json.loads(text, object_hook=object_hook))
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
])
def test_hook_keeps_every_read_error(table):
    """A malformed map is refused with the same message whether or not
    the degree tables were read by the hook."""
    data = cosimplicial_to_data(cech_object(3, 1))
    data["cofaces"][0][0] = table
    text = json.dumps(data)
    assert _read_error(text, degree_table_hook) == _read_error(text, None)


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

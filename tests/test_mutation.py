"""Mutation testing of the cosimplicial validators.

Every mutant changes exactly one integer entry of one matrix in the
serialized data.  Whether the mutant still satisfies the defining
axioms is decided by an oracle written here from scratch on the raw
row lists (plain integer matrix arithmetic, no library imports), so a
mutant that happens to remain a valid object is excluded without
consulting the code under test.  The suite then demands exact
agreement: every axiom-breaking mutant is rejected by the library,
every axiom-preserving one is accepted.
"""

import copy

from constructions_reference import (cech_object, constant_object,
                                    cosimplicial_to_data)
from corpus_reference import corpus
from tottower.chains import ChainComplexInt, chain_map
from tottower.cosimplicial import cosimplicial_from_data, validate_cosimplicial
from tottower.errors import InputError, InvariantError
from tottower.intlinalg import IntMatrix

# -- independent axiom oracle on raw serialized data ---------------------------


def _zeros(nr, nc):
    return [[0] * nc for _ in range(nr)]


def _mul(a, b, inner, ncols):
    """Product of row lists; explicit shapes so empty factors stay honest."""
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(ncols)]
        for i in range(len(a))
    ]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class _RawComplex:
    def __init__(self, data):
        self.lo = data["lo"]
        self.ranks = list(data["ranks"])
        self.bnds = data["boundaries"]

    def rank(self, g):
        i = g - self.lo
        return self.ranks[i] if 0 <= i < len(self.ranks) else 0

    def boundary(self, g):
        i = g - self.lo - 1
        if 0 <= i < len(self.bnds):
            return self.bnds[i]
        return _zeros(self.rank(g - 1), self.rank(g))


class _RawMap:
    def __init__(self, src, dst, table):
        self.src = src
        self.dst = dst
        self.table = table

    def mat(self, g):
        rows = self.table.get(str(g))
        if rows is None:
            return _zeros(self.dst.rank(g), self.src.rank(g))
        return rows


def _compose(outer, inner, degrees):
    return {
        g: _mul(outer.mat(g), inner.mat(g), inner.dst.rank(g),
                inner.src.rank(g))
        for g in degrees
    }


def axioms_hold(data) -> bool:
    """Squared boundaries, commuting squares, and all simplicial
    relations, checked degree by degree on the raw rows."""
    levels = [_RawComplex(d) for d in data["levels"]]
    m = data["truncation"]
    lo = min(c.lo for c in levels)
    hi = max(c.lo + len(c.ranks) for c in levels)
    degrees = range(lo, hi + 1)

    for c in levels:
        for g in degrees:
            prod = _mul(c.boundary(g - 1), c.boundary(g),
                        c.rank(g - 1), c.rank(g))
            if any(any(v for v in row) for row in prod):
                return False

    def coface(k, i):
        return _RawMap(levels[k], levels[k + 1], data["cofaces"][k][i])

    def codegen(k, i):
        return _RawMap(levels[k + 1], levels[k], data["codegeneracies"][k][i])

    maps = [coface(k, i) for k in range(m) for i in range(k + 2)]
    maps += [codegen(k, i) for k in range(m) for i in range(k + 1)]
    for f in maps:
        for g in degrees:
            left = _mul(f.dst.boundary(g), f.mat(g),
                        f.dst.rank(g), f.src.rank(g))
            right = _mul(f.mat(g - 1), f.src.boundary(g),
                         f.src.rank(g - 1), f.src.rank(g))
            if left != right:
                return False

    def same(outer_a, inner_a, outer_b, inner_b):
        return _compose(outer_a, inner_a, degrees) == _compose(
            outer_b, inner_b, degrees)

    for k in range(m - 1):
        for i in range(k + 2):
            for j in range(i + 1, k + 3):
                if not same(coface(k + 1, j), coface(k, i),
                            coface(k + 1, i), coface(k, j - 1)):
                    return False
    for k in range(1, m):
        for i in range(k):
            for j in range(i, k):
                if not same(codegen(k - 1, j), codegen(k, i),
                            codegen(k - 1, i), codegen(k, j + 1)):
                    return False
    for k in range(m):
        for i in range(k + 2):
            for j in range(k + 1):
                lhs = _compose(codegen(k, j), coface(k, i), degrees)
                if i == j or i == j + 1:
                    rhs = {g: _eye(levels[k].rank(g)) for g in degrees}
                elif i < j:
                    rhs = _compose(coface(k - 1, i), codegen(k - 1, j - 1),
                                   degrees)
                else:
                    rhs = _compose(coface(k - 1, i - 1), codegen(k - 1, j),
                                   degrees)
                if lhs != rhs:
                    return False
    return True


# -- mutant generation ---------------------------------------------------------


def _entry_slots(data):
    """Every (path, row, col) addressing one integer in one matrix."""
    slots = []
    for table in ("cofaces", "codegeneracies"):
        for k, row in enumerate(data[table]):
            for i, mapping in enumerate(row):
                for g in sorted(mapping):
                    rows = mapping[g]
                    for r in range(len(rows)):
                        for c in range(len(rows[r])):
                            slots.append(((table, k, i, g), r, c))
    for lv, level in enumerate(data["levels"]):
        for t, rows in enumerate(level["boundaries"]):
            for r in range(len(rows)):
                for c in range(len(rows[r])):
                    slots.append((("levels", lv, "boundaries", t), r, c))
    return slots


def _resolve(data, path):
    if path[0] == "levels":
        return data["levels"][path[1]]["boundaries"][path[3]]
    table, k, i, g = path
    return data[table][k][i][g]


def mutants_of(data, limit):
    """Deterministic single-entry perturbations, at most `limit` of them."""
    slots = _entry_slots(data)
    stride = max(1, len(slots) // limit)
    deltas = (1, -1, 2)
    out = []
    for pos in range(0, len(slots), stride):
        path, r, c = slots[pos]
        mutant = copy.deepcopy(data)
        _resolve(mutant, path)[r][c] += deltas[pos % len(deltas)]
        out.append((f"{path}[{r}][{c}]", mutant))
    return out


def library_rejects(data) -> bool:
    try:
        x = cosimplicial_from_data(data)
    except (InvariantError, InputError):
        return True
    ok, violations = validate_cosimplicial(x)
    assert ok == (not violations)
    return not ok


# -- the suite -----------------------------------------------------------------

ONE = IntMatrix.from_rows([[1]])


def _bases():
    two = ChainComplexInt(0, (1, 1), (ONE,))
    yield cech_object(2, 2)
    yield cech_object(2, 1)
    yield constant_object(two, 2)
    for obj in corpus(seed=20250811, count=3):
        yield obj.x


def test_originals_satisfy_the_oracle():
    for x in _bases():
        data = cosimplicial_to_data(x)
        assert axioms_hold(data)
        assert not library_rejects(data)


def test_axiom_oracle_and_library_agree_on_every_mutant():
    broken = kept = 0
    for x in _bases():
        data = cosimplicial_to_data(x)
        for label, mutant in mutants_of(data, limit=160):
            rejected = library_rejects(mutant)
            valid = axioms_hold(mutant)
            assert rejected != valid, (
                f"oracle and library disagree on {label}"
            )
            if valid:
                kept += 1
            else:
                broken += 1
    # a healthy spread: far more than the contract's floor of broken
    # mutants, and at least a few equivalent ones to prove the oracle
    # is doing real exclusion work
    assert broken >= 100
    assert kept >= 1

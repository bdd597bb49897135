"""A p-local Smith form, sharing no code with ``intlinalg``.

Every group the package reports comes out of the eliminations of
``intlinalg``, and so do the second routes that check them.  This
reference reads only the entries of the boundary matrices and eliminates
over Z/p^e, choosing at each step a pivot of least p-adic valuation (the
local Smith form; Dumas, Saunders and Villard, "On efficient sparse
integer matrix Smith normal form computations", J. Symbolic Comput. 32,
2001).  No entry grows past p^e, so it does no big-integer work.

For a boundary d_{k+1} into C_k, the valuations below e are those of the
invariant factors of d_{k+1}, which are the p-parts of the torsion of
H_k.  With e = 1 and a large prime every nonzero entry is a unit, and the
number of valuations is the rank of d_{k+1} over F_p, which equals its
rank over Z unless p divides an invariant factor.
"""

# p^8 bounds the p-parts that the torsion check sees: an invariant factor
# that p^8 divides reads as zero, like a missing rank
EXPONENT = 8
PRIMES = (2, 3, 5, 7)
# a Mersenne prime, far above any invariant factor of the test objects
LARGE_PRIME = 2 ** 61 - 1


def valuation(n: int, p: int) -> int:
    """The exponent of p in the nonzero integer n."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def local_smith_valuations(mat, p: int, e: int) -> list:
    """The p-adic valuations below e of the invariant factors of the
    integer matrix ``mat`` (any object with ``entries`` (row, col, value)
    triples), in increasing order.

    Rows are dicts reduced mod p^e.  Each step takes the first entry of
    least valuation k, clears its column from the other rows (their
    entries there have valuation >= k, so the pivot divides them mod p^e)
    and drops its row and column; clearing the pivot row by column
    operations would change no other row, so it is skipped.
    """
    mod = p ** e
    rows = {}
    for i, j, v in mat.entries:
        if v % mod:
            rows.setdefault(i, {})[j] = v % mod
    vals = []
    while rows:
        best = None
        for i, row in rows.items():
            for j, v in row.items():
                k = valuation(v, p)
                if best is None or k < best[0]:
                    best = (k, i, j)
                    if not k:
                        break
            if not best[0]:
                break
        k, i, j = best
        pivot = rows.pop(i)
        inverse = pow(pivot[j] // p ** k, -1, mod)
        for r in list(rows):
            row = rows[r]
            b = row.get(j)
            if b is None:
                continue
            q = (b // p ** k) * inverse % mod
            for c, w in pivot.items():
                nv = (row.get(c, 0) - q * w) % mod
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            if not row:
                del rows[r]
        vals.append(k)
    return sorted(vals)


def chain_euler(c) -> int:
    """The chain-level side of the Euler cross-checks, from ranks alone."""
    return sum((-1) ** k * c.rank(k) for k in c.degrees())

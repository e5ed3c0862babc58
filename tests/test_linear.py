"""Labeled modules, sparse matrices, graded slices."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import sympy_columns, sympy_matrix
from dflab import linear as ln
from dflab.ring import DescriptorError, Poly, addmul, ring_descriptor

R = ring_descriptor()
X, Y = R.var("x"), R.var("y")
M0 = ln.LabeledFreeModule(R, [ln.atom("e", 0)])
M1 = ln.LabeledFreeModule(R, [ln.atom("f", 1)])
M2 = ln.LabeledFreeModule(R, [ln.atom("g", 2)])
mx = ln.MapMatrix(M1, M0, {0: {0: X}})
my = ln.MapMatrix(M2, M1, {0: {0: Y}})


def test_compose_rank_one():
    c = mx.compose(my)
    assert c.col(0)[0] == X * Y
    assert ln.identity_map(M0).compose(mx).equals(mx)


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        mx.compose(mx)


def test_homogeneity_tagging():
    assert mx.is_homogeneous()
    bad = ln.MapMatrix(M1, M0, {0: {0: X + R.one()}})
    assert not bad.is_homogeneous()


def test_tensor_basics():
    t = ln.tensor_maps([mx, my])
    assert t.source.rank == t.target.rank == 1
    assert t.col(0)[0] == X * Y
    idt = ln.tensor_maps([ln.identity_map(M1), ln.identity_map(M2)])
    assert idt.equals(ln.identity_map(idt.source))
    A = ln.LabeledFreeModule(R, [ln.atom("a", 0), ln.atom("b", 0)])
    B = ln.LabeledFreeModule(R, [ln.atom("c", 0), ln.atom("d", 0), ln.atom("e2", 0)])
    assert ln.tensor_modules([A, B]).rank == 6


def test_tensor_functoriality():
    lhs = ln.tensor_maps([mx.compose(my), mx.compose(my)])
    rhs = ln.tensor_maps([mx, mx]).compose(ln.tensor_maps([my, my]))
    assert lhs.equals(rhs)


def test_dual():
    col = ln.MapMatrix(
        ln.LabeledFreeModule(R, [ln.atom("s", 1)]),
        ln.LabeledFreeModule(R, [ln.atom("t1", 0), ln.atom("t2", 0)]),
        {0: {0: X, 1: Y}},
    )
    d = col.transpose_raw(col.target, col.source)
    assert d.source.rank == 2 and d.target.rank == 1
    assert d.col(0)[0] == X and d.col(1)[0] == Y


def test_graded_slice_univariate_identity():
    R1 = ring_descriptor(variables=("x",), sequence=("x",))
    N0 = ln.LabeledFreeModule(R1, [ln.atom("e", 0)])
    N1 = ln.LabeledFreeModule(R1, [ln.atom("f", 1)])
    mr = ln.MapMatrix(N1, N0, {0: {0: R1.var("x")}})
    M, tb, sb = ln.graded_slice(mr, 1)
    assert (len(tb), len(sb)) == (1, 1) and M == [{0: 1}]


def dense_slice(f, tb, sb):
    """Cell (r, s) of f's slice: the coefficient of tb[r]'s monomial over
    sb[s]'s in the entry between their labels, read cell by cell."""
    cells = [[0] * len(sb) for _ in tb]
    for r, (i, tmono) in enumerate(tb):
        for s, (j, smono) in enumerate(sb):
            q = f.col(j).get(i)
            quotient = tuple(a - b for a, b in zip(tmono, smono))
            if q is not None and min(quotient) >= 0:
                cells[r][s] = q.terms.get(quotient, 0)
    return cells


def test_slice_columns_are_the_columns_of_the_dense_slice():
    c = mx.compose(my) + ln.MapMatrix(M2, M0, {0: {0: X * X}})
    for f in (mx, my, c):
        for t in range(5):
            M, tb, sb = ln.graded_slice(f, t)
            cols = list(ln.slice_columns(f, sb, ln.slice_positions(tb)))
            assert len(cols) == len(sb) and cols == M
            cells = dense_slice(f, tb, sb)
            for j, col in enumerate(cols):
                assert all(col.values())
                assert {i: row[j] for i, row in enumerate(cells) if row[j]} == col


@pytest.mark.parametrize("entry", [X * X, X + R.one()], ids=["wrong-degree", "inhomogeneous"])
def test_non_homogeneous_entry_raises_from_the_slice_builder(entry):
    bad = ln.MapMatrix(M1, M0, {0: {0: entry}})
    sb, tb = ln.slice_basis(M1, 1), ln.slice_basis(M0, 1)
    with pytest.raises(ValueError, match="non-homogeneous"):
        list(ln.slice_columns(bad, sb, ln.slice_positions(tb)))
    with pytest.raises(ValueError, match="non-homogeneous"):
        ln.graded_slice(bad, 1)


@pytest.mark.parametrize("name", ["F_97", "QQ"])
def test_multiplication_slice_multiplies_coordinates(name):
    """slice @ coords(p) == coords(f * p) for drawn homogeneous p, labels of mixed degrees."""
    ring = KERNEL_RINGS[name]
    field = ring.field
    x, y = ring.var("x"), ring.var("y")
    labels = [ln.atom("a", 0), ln.atom("b", 2), ln.atom("c", 1), ln.atom("e", 1)]
    module = ln.LabeledFreeModule(ring, labels)
    rng = np.random.default_rng(3)

    def coords(elem, basis):
        v = {}
        for pos, (i, mono) in enumerate(basis):
            if i in elem and elem[i].terms.get(mono, field.zero):
                v[pos] = elem[i].terms[mono]
        return v

    for f in (x + ring.const(2) * y, x * x - y * y):
        for t in range(5):
            sb, tb = ln.slice_basis(module, t), ln.slice_basis(module, t + f.degree())
            S = ln.multiplication_slice(module, f, t)
            assert len(S) == len(sb) and all(r < len(tb) for col in S for r in col)
            S = sympy_matrix(field, S, len(tb))
            for _ in range(3):
                p = {}
                for i, mono in sb:
                    c = field.coerce(Fraction(int(rng.integers(-3, 4)), int(rng.choice([1, 3]))))
                    if c != field.zero:
                        p[i] = p.get(i, ring.zero()) + Poly(ring, {mono: c})
                fp = {i: f * q for i, q in p.items()}
                product = S * sympy_matrix(field, [coords(p, sb)], len(sb))
                assert sympy_columns(field, product) == [coords(fp, tb)]
    with pytest.raises(ValueError, match="non-homogeneous"):
        ln.multiplication_slice(module, x + ring.one(), 1)


def test_slice_dimensions():
    assert len(ln.slice_basis(M0, 3)) == 4  # monomials of degree 3 in two variables
    assert len(ln.slice_basis(M0, -1)) == 0
    assert len(ln.slice_basis(M2, 1)) == 0  # below the generator degree


def test_slice_multiplicativity():
    c = mx.compose(my)
    for t in range(0, 5):
        A, B, C = (ln.graded_slice(f, t) for f in (mx, my, c))
        A, B, C = (sympy_matrix(R.field, cols, len(tb)) for cols, tb, _ in (A, B, C))
        assert A * B == C


def test_compose_associativity_random():
    rng = np.random.default_rng(0)
    mods = [
        ln.LabeledFreeModule(R, [ln.atom(f"m{k}_{i}", 0) for i in range(3)])
        for k in range(4)
    ]

    def rand_map(src, tgt):
        cols = {}
        for j in range(src.rank):
            col = {}
            for i in range(tgt.rank):
                v = int(rng.integers(0, 4))
                if v:
                    col[i] = R.const(v)
            if col:
                cols[j] = col
        return ln.MapMatrix(src, tgt, cols)

    f = rand_map(mods[0], mods[1])
    g = rand_map(mods[1], mods[2])
    h = rand_map(mods[2], mods[3])
    assert h.compose(g).compose(f).equals(h.compose(g.compose(f)))


def test_wedge_label_normalization():
    a, b = ln.atom("a", 0), ln.atom("b", 0)
    s1, w1 = ln.wedge([a, b])
    s2, w2 = ln.wedge([b, a])
    assert w1 == w2 and (s1, s2) == (1, -1)
    assert ln.wedge([a, a]) is None


def _structural_key(lab):
    """The recursive label order without degree slots: kind, then the
    children's keys, with a jump set's size before the jump set."""
    kind = lab[0]
    if kind == ln.ATOM:
        return lab
    if kind == ln.GAM:
        return (kind, len(lab[2]), lab[2], _structural_key(lab[3]))
    if kind in (ln.TENS, ln.SYM, ln.WEDGE, ln.DIV):
        return (kind, tuple(map(_structural_key, lab[1])))
    if kind in (ln.SCHUR, ln.COSCH):
        return (kind, *map(_structural_key, lab[1:4]))
    if kind == ln.SMD:
        return (kind, lab[1], _structural_key(lab[2]))
    return (kind, _structural_key(lab[1]))  # CR


def test_label_order_total():
    """Labels of mixed kinds sort by plain tuple order, in the structural
    order, and each label's last slot is its internal degree."""
    a, b = ln.atom("a", 0), ln.atom("b", 1)
    labs = {
        a: 0,
        b: 1,
        ln.gam((0, 1), b): 1,
        ln.gam((1,), a): 0,
        ln.gam((0, 1), a): 0,
        ln.sym((b, a)): 1,
        ln.tens((a, b)): 1,
        ln.tens((b, a)): 1,
        ln.wedge([b, a])[1]: 1,
        ln.div((b, b)): 2,
        ln.schur(b, a, b): 2,
        ln.cosch(a, b, a): 1,
        ln.smd(1, a): 0,
        ln.smd(0, b): 1,
        ln.cr(ln.sym((a, b))): 1,
    }
    assert all(lab[-1] == d for lab, d in labs.items())
    assert len(set(labs)) == len(labs)
    ordered = sorted(labs)
    assert ordered == sorted(labs, key=_structural_key)
    # smaller jump sets first, then the jump set, then the inner label
    assert ordered.index(ln.gam((1,), a)) < ordered.index(ln.gam((0, 1), a))
    assert ordered.index(ln.gam((0, 1), a)) < ordered.index(ln.gam((0, 1), b))
    assert ln.sym((b, a)) == ln.sym((a, b))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        ln.LabeledFreeModule(R, [ln.atom("a", 0), ln.atom("a", 0)])


# --- the multiply-accumulate kernel and sparse field matrices ------------------

KERNEL_RINGS = {
    "F_2": ring_descriptor(prime=2),
    "F_97": ring_descriptor(),
    "QQ": ring_descriptor(rationals=True),
}


def _random_poly(ring, rng):
    """A sparse poly with small exponents, coefficients often cancelling mod p."""
    terms = {}
    for _ in range(int(rng.integers(0, 4))):
        mono = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        c = ring.field.coerce(Fraction(int(rng.integers(-3, 4)), int(rng.choice([1, 3]))))
        if c != ring.field.zero:
            terms[mono] = c
    return Poly(ring, terms)


def _random_map(ring, src, tgt, rng, density=0.4):
    cols = {}
    for j in range(src.rank):
        col = {}
        for i in range(tgt.rank):
            if rng.random() < density:
                q = _random_poly(ring, rng)
                if not q.is_zero():
                    col[i] = q
        if col:
            cols[j] = col
    return ln.MapMatrix(src, tgt, cols)


def _naive_product_terms(ring, pairs):
    """sum of r * q over (r, q) pairs: integer or Fraction sums per monomial,
    coerced into the field at the end, zeros dropped."""
    sums: dict = {}
    for r, q in pairs:
        for m1, c1 in r.terms.items():
            for m2, c2 in q.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                sums[m] = sums.get(m, 0) + c1 * c2
    out = {m: ring.field.coerce(c) for m, c in sums.items()}
    return {m: c for m, c in out.items() if c != ring.field.zero}


def _no_zero_terms(poly):
    return all(c != poly.ring.field.zero for c in poly.terms.values())


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_compose_and_mul_match_naive_products(name):
    ring = KERNEL_RINGS[name]
    rng = np.random.default_rng(7)
    mods = [ln.LabeledFreeModule(ring, [ln.atom(f"k{k}_{i}", 0) for i in range(5)]) for k in range(3)]
    for _ in range(10):
        f = _random_map(ring, mods[0], mods[1], rng)
        g = _random_map(ring, mods[1], mods[2], rng)
        gf = g.compose(f)
        for j in range(mods[0].rank):
            want = {}
            for k in range(mods[2].rank):
                pairs = [(g.col(i)[k], q) for i, q in f.col(j).items() if k in g.col(i)]
                terms = _naive_product_terms(ring, pairs)
                if terms:
                    want[k] = terms
            assert {k: q.terms for k, q in gf.col(j).items()} == want
            assert all(_no_zero_terms(q) for q in gf.col(j).values())
        for _ in range(10):
            a, b = _random_poly(ring, rng), _random_poly(ring, rng)
            ab = a * b
            assert ab.terms == _naive_product_terms(ring, [(a, b)])
            assert _no_zero_terms(ab) and ab.ring is ring


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_compose_of_shared_entries_matches_naive_products(name):
    """Entries drawn from a few Poly objects, each used many times: compose
    computes each distinct product once and still gives every entry, and
    is_homogeneous reads each distinct entry once and still sees a
    shared non-homogeneous one."""
    ring = KERNEL_RINGS[name]
    rng = np.random.default_rng(13)
    shared = [q for q in (_random_poly(ring, rng) for _ in range(12)) if not q.is_zero()][:4]
    mods = [ln.LabeledFreeModule(ring, [ln.atom(f"s{k}_{i}", 0) for i in range(6)]) for k in range(3)]

    def shared_map(src, tgt):
        cols = {j: {i: shared[int(rng.integers(len(shared)))] for i in range(tgt.rank)
                    if rng.random() < 0.6} for j in range(src.rank)}
        return ln.MapMatrix(src, tgt, cols)

    for _ in range(5):
        f, g = shared_map(mods[0], mods[1]), shared_map(mods[1], mods[2])
        gf = g.compose(f)
        for j in range(mods[0].rank):
            want = {}
            for k in range(mods[2].rank):
                pairs = [(g.col(i)[k], q) for i, q in f.col(j).items() if k in g.col(i)]
                terms = _naive_product_terms(ring, pairs)
                if terms:
                    want[k] = terms
            assert {k: q.terms for k, q in gf.col(j).items()} == want
    x, y, one = ring.var("x"), ring.var("y"), ring.one()
    A = ln.LabeledFreeModule(ring, [ln.atom(f"a{j}", 1) for j in range(3)])
    B = ln.LabeledFreeModule(ring, [ln.atom(f"b{i}", 0) for i in range(3)])
    assert ln.MapMatrix(A, B, {j: {i: x for i in range(3)} for j in range(3)}).is_homogeneous()
    mixed = {j: {0: x, 1: x, 2: y} for j in range(3)}
    mixed[2][1] = x + one
    assert not ln.MapMatrix(A, B, mixed).is_homogeneous()
    assert not ln.MapMatrix(A, A, {j: {j: x} for j in range(3)}).is_homogeneous()


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_kernel_drops_cancelled_terms(name):
    ring = KERNEL_RINGS[name]
    x, y = ring.var("x"), ring.var("y")
    minus_one = ring.const(-1)
    # (x + y)(x - y): the xy terms cancel in every characteristic
    assert (x + y) * (x + y * minus_one) == x * x + y * y * minus_one
    assert addmul({}, (x + y).terms, (x + y * minus_one).terms, ring.field) == (x * x + y * y * minus_one).terms
    # a row (x, y) against the column (y, -x) composes to a zero entry
    A = ln.LabeledFreeModule(ring, [ln.atom("a", 0)])
    B = ln.LabeledFreeModule(ring, [ln.atom("b1", 0), ln.atom("b2", 0)])
    row = ln.MapMatrix(B, A, {0: {0: x}, 1: {0: y}})
    col = ln.MapMatrix(A, B, {0: {0: y, 1: x * minus_one}})
    assert row.compose(col).col(0) == {} and row.compose(col).is_zero()
    if name == "F_2":
        assert ((x + y) * (x + y)).terms == {(2, 0): 1, (0, 2): 1}


def test_compose_checks_every_ring():
    other = ring_descriptor(prime=5)
    O0 = ln.LabeledFreeModule(other, [ln.atom("e", 0)])
    O1 = ln.LabeledFreeModule(other, [ln.atom("f", 1)])
    ox = ln.MapMatrix(O1, O0, {0: {0: other.var("x")}})
    with pytest.raises(DescriptorError):
        ox.compose(my)  # labels match, primes do not
    with pytest.raises(DescriptorError):
        mx.compose(ln.MapMatrix(M2, M1, {0: {0: other.var("y")}}))
    # a mismatched entry after a good pair that shares its other entry
    H = ln.LabeledFreeModule(R, [ln.atom("h0", 2), ln.atom("h1", 2)])
    with pytest.raises(DescriptorError):
        mx.compose(ln.MapMatrix(H, M1, {0: {0: Y}, 1: {0: other.var("y")}}))
    same = ring_descriptor()  # equal to R, a distinct object
    assert same is not R
    sy = ln.MapMatrix(M2, M1, {0: {0: same.var("y")}})
    assert mx.compose(sy).equals(mx.compose(my))


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_constant_columns_read_every_entry(name):
    ring = KERNEL_RINGS[name]
    field = ring.field
    rng = np.random.default_rng(3)
    src = ln.LabeledFreeModule(ring, [ln.atom(f"s{j}", 0) for j in range(7)])
    tgt = ln.LabeledFreeModule(ring, [ln.atom(f"t{i}", 0) for i in range(6)])
    cols = {}
    for j in (0, 2, 3, 5):  # columns 1, 4 and 6 stay zero
        col = {}
        for i in range(tgt.rank):
            c = field.coerce(Fraction(int(rng.integers(-4, 5)), int(rng.choice([1, 3]))))
            if rng.random() < 0.5 and c != field.zero:
                col[i] = ring.const(c)
        cols[j] = col
    f = ln.MapMatrix(src, tgt, cols)
    got = ln.constant_columns(f)
    assert got == [{i: q.terms[(0, 0)] for i, q in f.col(j).items()} for j in range(src.rank)]
    assert [j for j, col in enumerate(got) if col] == [j for j in (0, 2, 3, 5) if cols[j]]
    assert ln.constant_columns(ln.zero_map(src, tgt)) == [{}] * src.rank
    with pytest.raises(ValueError, match="constant"):
        ln.constant_columns(ln.MapMatrix(src, tgt, {0: {0: ring.var("x")}}))

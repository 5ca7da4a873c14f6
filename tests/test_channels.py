import json
from fractions import Fraction

import numpy as np
import pytest

from extremal_marginals import (
    KrausFamily,
    adjoint,
    block_gram,
    choi,
    choi_rank,
    exact_marginals,
    family_from_json,
    family_to_json,
    is_minimal,
    marginals,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    ohno_rank4,
    ohno_rank_d,
    partial_transpose,
    random_family,
    rank,
    rank8_66,
    rank8k_6k,
    shift_family,
    sigma_rank2,
    tensor,
)
from extremal_marginals.extremality import _span, is_extremal
from extremal_marginals.linalg import RANK_PRIME
from conftest import (
    _bareiss_rank,
    apply,
    partial_trace,
    random_density,
    random_unitary,
    reorder_subsystems,
    same_bits,
    vec,
)


def identity_family(d=2):
    return KrausFamily(d_in=d, d_out=d, ops=(np.eye(d) / np.sqrt(d),))


class TestKrausFamily:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            KrausFamily(d_in=2, d_out=3, ops=(np.eye(2),))
        with pytest.raises(ValueError):
            KrausFamily(d_in=2, d_out=2, ops=())
        with pytest.raises(ValueError, match="at least one operator"):
            KrausFamily(d_in=2, d_out=2, ops=(), exact_ops=())

    def test_ops_are_immutable(self):
        f = identity_family()
        with pytest.raises(ValueError):
            f.ops[0][0, 0] = 5.0

    def test_real_operators_are_converted_once(self):
        given = np.arange(6.0).reshape(3, 2) / 10
        f = KrausFamily(d_in=2, d_out=3, ops=(given, given.astype(complex)))
        assert all(k.dtype == np.float64 for k in f.ops)
        assert not any(np.shares_memory(k, given) for k in f.ops)
        assert given.flags.writeable
        assert np.array_equal(f.ops[0], given) and np.array_equal(f.ops[1], given)

    def test_numpy_integer_exact_entries_do_not_wrap_around(self):
        """np.int64 scalars given in object arrays become Python ints inside
        the family, so the object-dtype products are exact: (3 * 2^31)^2
        overflows int64."""
        big = 3 * 2**31
        given = tuple(
            np.array([[np.int64(x) for x in row] for row in m], dtype=object)
            for m in ([[big, 0], [0, big]], [[0, big], [big, 1]])
        )
        total = float(sum((e.astype(float) ** 2).sum() for e in given))
        f = KrausFamily(d_in=2, d_out=2, ops=tuple(e / np.sqrt(total) for e in given), exact_ops=given)
        assert {type(x) for e in f.exact_ops for x in e.flat} == {int}
        t = 4 * big**2 + 1
        rho1, rho2 = exact_marginals(f)
        assert rho1[0, 0] == Fraction(2 * big**2, t)
        assert rho1[1, 1] == rho2[1, 1] == Fraction(2 * big**2 + 1, t)
        assert rho1[0, 1] == rho2[0, 1] == Fraction(big, t)
        assert block_gram(f)[0, 0] == 4 * big**4
        # a Fraction built from numpy integers keeps them as its parts
        half = np.array([[Fraction(np.int64(big), np.int64(2)), 0], [0, 1]], dtype=object)
        g = KrausFamily(d_in=2, d_out=2, ops=(half,), exact_ops=(half,))
        assert type(g.exact_ops[0][0, 0].numerator) is int
        assert block_gram(g)[0, 0] == 2 * ((big // 2) ** 4 + 1)

    def test_integer_stack_is_decided_once(self):
        """``integer_ops`` is the exact operators times the lcm of their
        denominators, int64 when it fits; the exact span and Choi rank it
        feeds give the ranks and engines of the per-call conversion. The
        exact entries keep their values, as Python ints and Fractions of
        Python ints, however they were given."""

        def family(mats):
            return KrausFamily(d_in=2, d_out=3, ops=tuple(mats), exact_ops=tuple(mats))

        h = Fraction
        fractions = [
            [[h(1, 2), 0], [0, h(1, 3)], [0, 0]],
            [[0, h(1, 4)], [h(1, 6), 0], [0, 1]],
            [[1, 1], [0, 0], [h(1, 5), 0]],
            [[h(1, 2), h(1, 4)], [h(1, 6), h(1, 3)], [0, 1]],
        ]
        big = [[[2**63, 0], [0, 1], [0, 0]], [[0, 1], [1, 0], [0, 2**64 + 3]], [[1, 1], [0, 0], [1, 0]]]
        small = [[[3, 0], [0, -2], [1, 1]], [[0, 1], [2, 0], [0, 0]], [[3, 1], [2, -2], [1, 1]]]

        def numpy_parts(x):
            return h(np.int64(x.numerator), np.int64(x.denominator)) if isinstance(x, h) else np.int64(x)

        def to_object(convert):
            return np.vectorize(convert, otypes=[object])

        fractions_json = [matrix_to_json(np.array(m, dtype=object)) for m in fractions]
        # (operators, stack dtype, lcm, span and Choi rank, engine and primes):
        # every rank is deficient (the fourth fraction operator is a sum of
        # two others) or past the 2^53 Gram bound, so it is decided mod p; the
        # span scaled by 60^2 needs three primes to pass its minors' bound once
        # each row is divided by the gcd of its entries (five without)
        cases = [
            ([np.array(m, dtype=object) for m in fractions], np.int64, 60, (9, "mod-p", 3), (3, "mod-p", 1)),
            ([np.array(m, dtype=object) for m in big], object, 1, (9, "mod-p", 1), (3, "mod-p", 1)),
            ([np.array(m, dtype=np.int64) for m in small], np.int64, 1, (4, "mod-p", 1), (2, "mod-p", 1)),
            ([to_object(np.int64)(m) for m in small], np.int64, 1, (4, "mod-p", 1), (2, "mod-p", 1)),
            ([to_object(numpy_parts)(m) for m in fractions], np.int64, 60, (9, "mod-p", 3), (3, "mod-p", 1)),
        ]
        cases = [(family(mats), mats, *rest) for mats, *rest in cases]
        from_json = family_from_json({"d_in": 2, "d_out": 3, "ops": fractions_json})
        parsed = [matrix_from_json(m) for m in fractions_json]
        cases.append((from_json, parsed, np.int64, 60, (9, "mod-p", 3), (3, "mod-p", 1)))
        for f, given, dtype, lcm, span, vecs in cases:
            for e, g in zip(f.exact_ops, given):
                assert e.tolist() == np.asarray(g).tolist()
                for x, y in zip(e.flat, np.asarray(g, dtype=object).flat):
                    want = Fraction if isinstance(y, Fraction) else int
                    assert type(x) is want
                    assert want is int or type(x.numerator) is type(x.denominator) is int
            k = f.integer_ops
            assert k.shape == (f.r, f.d_out, f.d_in) and k.dtype == dtype
            assert not k.flags.writeable
            assert [[[lcm * x for x in row] for row in e.tolist()] for e in f.exact_ops] == k.tolist()
            for rr, want, oracle in (
                (is_extremal(f).gram_rank, span, _span(f, exact=True)),
                (choi_rank(f), vecs, k.reshape(f.r, -1)),
            ):
                assert (rr.rank, rr.engine, rr.primes) == want
                assert (rr.prime, rr.rank) == (RANK_PRIME, _bareiss_rank(oracle.tolist()))
        assert sigma_rank2().integer_ops is None

    def test_hermitian_flag(self):
        assert sigma_rank2().hermitian_kraus
        assert ohno_rank_d(4).hermitian_kraus
        assert not ohno_rank4().hermitian_kraus
        assert not shift_family(2, 1).hermitian_kraus

    def test_hermitian_flag_does_not_change_with_scale(self, rng):
        """The flag is relative to sqrt(sum_i ||K_i||_F^2): a non-Hermitian
        family scaled down is still not Hermitian, and a Hermitian one scaled
        up still is, in the flag and in the JSON that carries it."""
        h = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        h = h + h.conj().transpose(0, 2, 1)
        for s in (1e-13, 2.0**-200, 1e-3, 1.0, 1e6, 2.0**200):
            for ops, hermitian in ((random_family(rng, 4, 4, 3).ops, False), (h, True)):
                f = KrausFamily(d_in=4, d_out=4, ops=s * ops)
                assert f.hermitian_kraus is hermitian
                assert json.loads(json.dumps(family_to_json(f)))["hermitian_kraus"] is hermitian
            for f in (ohno_rank_d(4), sigma_rank2()):
                assert KrausFamily(d_in=f.d_in, d_out=f.d_out, ops=s * f.ops).hermitian_kraus
            assert not KrausFamily(d_in=3, d_out=3, ops=s * ohno_rank4().ops).hermitian_kraus

    def test_arithmetic_is_decided_by_the_family(self, rng):
        """Real families store float64 operators and Gaussian ones complex128;
        every product built from a real family stays float64."""
        builtins = [
            sigma_rank2(),
            ohno_rank4(),
            ohno_rank_d(8),
            rank8_66(),
            rank8k_6k(3),
            shift_family(3, 2),
        ]
        integer = KrausFamily(d_in=2, d_out=3, ops=(np.arange(6).reshape(3, 2),))
        real = [
            *builtins,
            integer,
            adjoint(shift_family(2, 2)),
            tensor(sigma_rank2(), shift_family(2, 1)),
            *(family_from_json(family_to_json(f)) for f in (sigma_rank2(), integer)),
        ]
        for f in real:
            assert all(k.dtype == np.float64 for k in f.ops)
        for f in (random_family(rng, 2, 3, 3), adjoint(random_family(rng, 3, 2, 2))):
            assert all(k.dtype == np.complex128 for k in f.ops)
        for f in builtins:
            span = _span(f, exact=False)
            assert choi(f).dtype == np.float64
            assert getattr(span, "vals", span).dtype == np.float64
            assert partial_transpose(choi(f), f.d_in, f.d_out, "first").dtype == np.float64
            if f.exact_ops is None:
                assert block_gram(f).dtype == np.float64

    def test_normalization_flag(self):
        assert shift_family(4, 3).is_normalized()
        unscaled = KrausFamily(d_in=2, d_out=2, ops=(np.eye(2),))
        assert not unscaled.is_normalized()

    def test_exact_ops_must_be_proportional(self):
        good = np.zeros((2, 2), dtype=object)
        good[0, 0] = 1
        with pytest.raises(ValueError):
            KrausFamily(d_in=2, d_out=2, ops=(np.eye(2),), exact_ops=(good,))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 2.0**200])
    def test_wrong_exact_ops_are_refused_at_every_scale(self, scale):
        # the bound is relative to the operators' size: tiny wrong exact
        # operators are refused, as the exact and numerical verdicts on them
        # would disagree
        ops = tuple(np.random.default_rng(11).standard_normal((2, 2, 2)) * scale)
        e11 = np.array([[1, 0], [0, 0]], dtype=object)
        with pytest.raises(ValueError, match="not proportional"):
            KrausFamily(d_in=2, d_out=2, ops=ops, exact_ops=(e11, e11))
        zero = np.zeros((2, 2), dtype=object)
        with pytest.raises(ValueError, match="exact_ops are all zero"):
            KrausFamily(d_in=2, d_out=2, ops=ops, exact_ops=(zero, zero))
        with pytest.raises(ValueError, match="ops are all zero"):
            KrausFamily(d_in=2, d_out=2, ops=(np.zeros((2, 2)),) * 2, exact_ops=(e11, e11))

    @pytest.mark.parametrize("scale", [1e-200, 1e-13, 1.0, 2.0**200])
    def test_right_exact_ops_construct_at_every_scale(self, scale):
        exact = (
            np.array([[1, Fraction(2, 3)], [0, -5]], dtype=object),
            np.array([[0, 7], [Fraction(-1, 9), 3]], dtype=object),
        )
        f = KrausFamily(d_in=2, d_out=2, ops=tuple(e.astype(float) * scale for e in exact), exact_ops=exact)
        assert f.integer_ops is not None and f.ops.max() == 7 * scale
        zero = np.zeros((2, 2), dtype=object)
        KrausFamily(d_in=2, d_out=2, ops=(np.zeros((2, 2)),), exact_ops=(zero,))

    def test_exact_ops_must_be_rational(self):
        bad = np.zeros((2, 2), dtype=object)
        bad[0, 0] = 0.5
        with pytest.raises(ValueError):
            KrausFamily(d_in=2, d_out=2, ops=(np.eye(2),), exact_ops=(bad,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_operators(self, bad):
        k = np.eye(2, dtype=complex) / 2
        k[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            KrausFamily(d_in=2, d_out=2, ops=(np.eye(2) / 2, k))


def seeded_families(rng):
    """A real, a complex and an exact seeded family, each with the operators
    it was given: the exact one gets its object arrays as ``ops`` too."""
    real = tuple(rng.standard_normal((3, 2)) for _ in range(3))
    complex_ = tuple(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)) for _ in range(2))
    exact = tuple(np.array(m.tolist(), dtype=object) for m in rng.integers(-2, 3, size=(4, 3, 3)))
    return [
        (KrausFamily(d_in=2, d_out=3, ops=real), real, np.float64),
        (KrausFamily(d_in=4, d_out=2, ops=complex_), complex_, np.complex128),
        (KrausFamily(d_in=3, d_out=3, ops=exact, exact_ops=exact), exact, np.float64),
    ]


class TestOperatorStack:
    def test_one_read_only_stack(self, rng):
        for f, given, dtype in seeded_families(rng):
            k = f.ops
            assert isinstance(k, np.ndarray) and k.dtype == dtype
            assert k.shape == (len(given), f.d_out, f.d_in) == (f.r, f.d_out, f.d_in)
            assert k.flags.c_contiguous and not k.flags.writeable
            assert not any(np.shares_memory(k, g) for g in given)
            for i, (op, g) in enumerate(zip(f.ops, given)):
                assert same_bits(op, np.array(g, dtype=dtype)) and same_bits(k[i], op)
            assert len(f.ops) == f.r

    def test_a_stack_is_copied_into_c_order(self, rng):
        given = np.asfortranarray(rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4)))
        f = KrausFamily(d_in=4, d_out=2, ops=given)
        assert f.ops.flags.c_contiguous and not np.shares_memory(f.ops, given)
        assert same_bits(f.ops, np.ascontiguousarray(given)) and given.flags.writeable
        real = KrausFamily(d_in=4, d_out=2, ops=given.real.astype(complex))
        assert same_bits(real.ops, np.ascontiguousarray(given.real))

    def test_bad_operators_keep_their_messages(self):
        bad_shape = "operator shape \\(3, 2\\) does not match d_out x d_in = \\(2, 2\\)"
        with pytest.raises(ValueError, match=bad_shape):
            KrausFamily(d_in=2, d_out=2, ops=(np.ones((3, 2)),))
        with pytest.raises(ValueError, match=bad_shape):
            KrausFamily(d_in=2, d_out=2, ops=(np.eye(2), np.ones((3, 2))))
        with pytest.raises(ValueError, match=bad_shape):
            KrausFamily(d_in=2, d_out=2, ops=np.ones((2, 3, 2)))
        nan = np.eye(2)
        nan[1, 0] = np.nan
        for ops in ((np.eye(2), nan), np.stack([np.eye(2), nan]), (nan + 1j,)):
            with pytest.raises(ValueError, match="must be finite"):
                KrausFamily(d_in=2, d_out=2, ops=ops)

    def test_adjoint_and_tensor_match_per_operator_products(self, rng):
        fams = [f for f, _, _ in seeded_families(rng)]
        for f in fams:
            assert same_bits(adjoint(f).ops, np.array([k.conj().T for k in f.ops]))
        normalized = [random_family(rng, 2, 3, 2), shift_family(2, 1), sigma_rank2()]
        for f in normalized:
            for g in normalized:
                want = np.array([np.kron(a, b) for a in f.ops for b in g.ops])
                assert same_bits(tensor(f, g).ops, want)


class TestRandomFamily:
    def test_one_draw_is_the_per_operator_draw(self):
        """All operators come from one draw, with the bytes and the generator
        state of a real and then an imaginary draw per operator."""
        for seed, (d_in, d_out, r) in enumerate([(2, 3, 1), (3, 2, 4), (4, 4, 6)]):
            drawn = np.random.default_rng(seed)
            f = random_family(drawn, d_in, d_out, r)
            rng = np.random.default_rng(seed)
            ops = [rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in)) for _ in range(r)]
            total = sum(float(np.vdot(k, k).real) for k in ops)
            assert same_bits(f.ops, np.array([k / np.sqrt(total) for k in ops]))
            assert drawn.standard_normal() == rng.standard_normal()


class TestApply:
    def test_identity_family_halves(self, rng):
        x = random_density(rng, 2)
        assert np.abs(apply(identity_family(), x) - x / 2).max() <= 1e-12

    def test_shift_family_on_identity(self):
        out = apply(shift_family(2, 1), np.eye(2))
        assert np.abs(out - np.eye(3) / 3).max() <= 1e-12

    def test_ohno4_on_e11(self):
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        expected = np.diag([1.0, 2.0, 1.0]) / 12
        assert np.abs(apply(ohno_rank4(), e11) - expected).max() <= 1e-12

    def test_positivity(self, rng):
        f = random_family(rng, 3, 4, 3)
        w = np.linalg.eigvalsh(apply(f, random_density(rng, 3)))
        assert w.min() >= -1e-12

    def test_trace_identity(self, rng):
        f = random_family(rng, 3, 4, 3)
        s1 = sum(k.conj().T @ k for k in f.ops)
        for _ in range(5):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = np.trace(apply(f, x))
            rhs = np.trace(x @ s1)
            assert abs(lhs - rhs) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_family(), np.eye(3))


class TestMarginals:
    def test_shift_family_2_1(self):
        mp = marginals(shift_family(2, 1))
        assert np.abs(mp.rho1 - np.eye(2) / 2).max() <= 1e-14
        assert np.abs(mp.rho2 - np.eye(3) / 3).max() <= 1e-14

    def test_sigma_rank2(self):
        mp = marginals(sigma_rank2())
        sigma = np.diag([1 / 3, 2 / 3])
        assert np.abs(mp.rho1 - sigma).max() <= 1e-14
        assert np.abs(mp.rho2 - sigma).max() <= 1e-14

    def test_single_unitary(self, rng):
        u = random_unitary(rng, 4)
        mp = marginals(KrausFamily(d_in=4, d_out=4, ops=(u / 2,)))
        assert np.abs(mp.rho1 - np.eye(4) / 4).max() <= 1e-12
        assert np.abs(mp.rho2 - np.eye(4) / 4).max() <= 1e-12

    def test_one_product_per_side_matches_the_per_operator_sum(self, rng):
        families = [
            sigma_rank2(),
            ohno_rank4(),
            ohno_rank_d(5),
            rank8_66(),
            rank8k_6k(3),
            shift_family(4, 4),
            *(random_family(rng, int(a), int(b), int(r)) for a, b, r in rng.integers(1, 7, size=(10, 3))),
        ]
        for f in families:
            mp = marginals(f)
            rho1 = sum(k.conj().T @ k for k in f.ops).T
            rho2 = sum(k @ k.conj().T for k in f.ops)
            bound = 4 * f.r * np.finfo(float).eps * float(np.trace(rho1).real)
            assert mp.rho1.dtype == mp.rho2.dtype == f.ops[0].dtype
            assert np.abs(mp.rho1 - rho1).max() <= bound
            assert np.abs(mp.rho2 - rho2).max() <= bound

    def test_exact_marginals_of_shift_family(self):
        rho1, rho2 = exact_marginals(shift_family(3, 2))
        p = Fraction(4, 5)
        for i in range(3):
            for j in range(3):
                expected = p / 3 * (i == j) + (1 - p) / 3
                assert rho1[i, j] == expected
        for i in range(5):
            for j in range(5):
                assert rho2[i, j] == Fraction(int(i == j), 5)

    def test_exact_marginals_are_fractions_of_the_summed_products(self):
        """Each entry is (sum_i E_i^dagger E_i)^T or sum_i E_i E_i^dagger,
        entry by entry in Fractions, divided by the trace of the first sum."""
        e1 = np.array([[Fraction(1, 3), Fraction(-2, 5)], [0, Fraction(7, 4)]], dtype=object)
        e2 = np.array([[Fraction(1, 2), 1], [Fraction(-1, 6), 0]], dtype=object)
        total = sum(float((e.astype(float) ** 2).sum()) for e in (e1, e2))
        fractional = KrausFamily(
            d_in=2,
            d_out=2,
            ops=tuple(e.astype(float) / np.sqrt(total) for e in (e1, e2)),
            exact_ops=(e1, e2),
        )
        for f in (shift_family(3, 2), fractional):
            rho1, rho2 = exact_marginals(f)
            t = sum(
                (Fraction(x) ** 2 for e in f.exact_ops for x in e.flat), start=Fraction(0)
            )
            for rho, left in ((rho1, True), (rho2, False)):
                n = f.d_in if left else f.d_out
                assert rho.shape == (n, n)
                for a in range(n):
                    for b in range(n):
                        want = Fraction(0)
                        for e in f.exact_ops:
                            if left:  # (E^T E)[b, a]
                                want += sum(Fraction(e[c, b]) * Fraction(e[c, a]) for c in range(f.d_out))
                            else:  # (E E^T)[a, b]
                                want += sum(Fraction(e[a, c]) * Fraction(e[b, c]) for c in range(f.d_in))
                        assert type(rho[a, b]) is Fraction
                        assert rho[a, b] == want / t

    def test_exact_marginals_requires_exact_ops(self):
        with pytest.raises(ValueError):
            exact_marginals(sigma_rank2())


class TestChoi:
    def test_identity_family_gives_bell(self):
        c = choi(identity_family())
        v = np.zeros(4)
        v[0] = v[3] = 1 / np.sqrt(2)
        assert np.abs(c - np.outer(v, v)).max() <= 1e-12
        assert abs(np.trace(c) - 1) <= 1e-12
        assert rank(c).rank == 1

    def test_shift_family_choi(self):
        c = choi(shift_family(2, 1))
        assert min_eigenvalue(c) >= -1e-12
        assert rank(c).rank == 3
        assert abs(np.trace(c) - 1) <= 1e-12

    def test_partial_traces_recover_marginals(self, rng):
        f = random_family(rng, 3, 4, 3)
        mp = marginals(f)
        c = choi(f)
        assert np.abs(partial_trace(c, 3, 4, "second") - mp.rho1).max() <= 1e-12
        assert np.abs(partial_trace(c, 3, 4, "first") - mp.rho2).max() <= 1e-12
        assert min_eigenvalue(c) >= -1e-10

    def test_single_product_equals_sum_of_outer_products(self, rng):
        for f in (random_family(rng, 3, 4, 5), random_family(rng, 4, 2, 7), ohno_rank_d(6)):
            outer = sum(np.outer(vec(k), vec(k).conj()) for k in f.ops)
            # entries are at most 1 in modulus: r products and r - 1 sums of rounding
            assert np.abs(choi(f) - outer).max() <= 4 * f.r * np.finfo(float).eps

    def test_real_family_gives_a_real_choi_matrix(self):
        for f in (shift_family(6, 8), ohno_rank_d(6), rank8_66(), sigma_rank2()):
            c = choi(f)
            assert c.dtype == np.float64
            v = np.array([vec(k) for k in f.ops], dtype=complex)
            assert np.abs(c - v.T @ v.conj()).max() <= 4 * f.r * np.finfo(float).eps


class TestChoiRank:
    def test_duplicated_family(self):
        k = np.eye(2) / 2
        assert choi_rank(KrausFamily(d_in=2, d_out=2, ops=(k, k))).rank == 1

    def test_shift_family_exact(self):
        rr = choi_rank(shift_family(3, 2))
        assert rr.rank == 5
        assert rr.mode == "exact"

    def test_rank8_66(self):
        assert choi_rank(rank8_66()).rank == 8

    def test_rational_family_takes_no_tol(self):
        # its Choi rank is exact, so a tol is refused rather than ignored
        f = shift_family(3, 2)
        with pytest.raises(ValueError, match="tol"):
            choi_rank(f, tol=100.0)
        assert choi_rank(KrausFamily(d_in=3, d_out=5, ops=f.ops), tol=100.0).rank == 0

    def test_agrees_with_choi_matrix_rank(self, rng):
        for _ in range(10):
            f = random_family(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 5)))
            assert choi_rank(f).rank == rank(choi(f)).rank

    def test_stacked_vectors_are_vec_of_each_operator(self, rng):
        f = random_family(rng, 3, 4, 5)
        real = KrausFamily(d_in=4, d_out=3, ops=tuple(rng.standard_normal((5, 3, 4))))
        # a repeated operator: the Kraus vectors are deficient, and the SVD decides
        twice = KrausFamily(d_in=4, d_out=3, ops=(*real.ops[:4], real.ops[0]))
        engines = set()
        for g in (f, real, twice, shift_family(3, 2)):
            rr = choi_rank(g)
            if g.exact_ops is None:
                per_op = np.array([vec(k) for k in g.ops])
                s = np.linalg.svd(per_op, compute_uv=False)
                assert rr.rank == rank(per_op).rank == (4 if g is twice else 5)
                engines.add(rr.engine)
                if rr.engine == "svd":
                    assert rr.smallest_kept_singular_value == pytest.approx(s[rr.rank - 1], rel=1e-13)
                else:
                    # a certified lower bound on sigma_min, cleared tenfold
                    assert 10 * rr.threshold <= rr.smallest_kept_singular_value <= s[rr.rank - 1]
            else:
                assert rr.rank == rank(np.array([vec(e) for e in g.exact_ops]), mode="exact").rank
        assert engines == {"cholesky", "svd"}


class TestAdjoint:
    def test_involution(self, rng):
        f = random_family(rng, 3, 4, 3)
        back = adjoint(adjoint(f))
        assert back.d_in == f.d_in and back.d_out == f.d_out
        assert all(np.abs(a - b).max() <= 1e-15 for a, b in zip(back.ops, f.ops))

    def test_marginal_swap(self):
        mp = marginals(adjoint(shift_family(2, 1)))
        assert np.abs(mp.rho1 - np.eye(3) / 3).max() <= 1e-14
        assert np.abs(mp.rho2 - np.eye(2) / 2).max() <= 1e-14

    def test_gram_rank_invariant(self, rng):
        for _ in range(50):
            f = random_family(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            assert rank(block_gram(f)).rank == rank(block_gram(adjoint(f))).rank

    def test_preserves_exact_ops(self):
        """The adjoint's exact operators are the transposes, and the tensor
        product's the Kronecker products, of the exact entries: the same
        values and the same Python int or Fraction type per entry."""
        h = Fraction
        e = [np.array(m, dtype=object) for m in ([[h(1, 2), 0], [1, h(-2, 3)]], [[0, h(4, 1)], [2, 0]])]
        norm = np.sqrt(float(sum(x * x for m in e for x in m.flat)))
        fractions = KrausFamily(d_in=2, d_out=2, ops=tuple(m.astype(float) / norm for m in e), exact_ops=tuple(e))
        for f in (shift_family(2, 2), fractions):
            want = [m.T for m in f.exact_ops]
            products = [np.kron(a, b) for a in f.exact_ops for b in shift_family(2, 1).exact_ops]
            got = (adjoint(f).exact_ops, tensor(f, shift_family(2, 1)).exact_ops)
            for exact, expected in zip(got, (want, products)):
                assert len(exact) == len(expected)
                for a, b in zip(exact, expected):
                    assert a.tolist() == b.tolist()
                    assert [type(x) for x in a.flat] == [type(x) for x in b.flat]
        assert {type(x) for m in adjoint(fractions).exact_ops for x in m.flat} == {int, Fraction}


class TestTensor:
    def test_rank8_66_marginals(self):
        mp = marginals(rank8_66())
        d = np.kron(np.diag([1 / 3, 2 / 3]), np.eye(3) / 3)
        assert np.abs(mp.rho1 - d).max() <= 1e-12
        assert np.abs(mp.rho2 - d).max() <= 1e-12
        assert rank8_66().r == 8

    def test_with_depolarizing_identity_preserves_choi_rank(self, rng):
        f = random_family(rng, 2, 3, 2)
        g = identity_family(3)
        assert choi_rank(tensor(f, g)).rank == choi_rank(f).rank

    def test_marginals_factor(self, rng):
        f = random_family(rng, 2, 3, 2)
        g = random_family(rng, 2, 2, 2)
        mp = marginals(tensor(f, g))
        mf, mg = marginals(f), marginals(g)
        assert np.abs(mp.rho1 - np.kron(mf.rho1, mg.rho1)).max() <= 1e-12
        assert np.abs(mp.rho2 - np.kron(mf.rho2, mg.rho2)).max() <= 1e-12

    def test_choi_factorizes_up_to_interleaving(self, rng):
        f = random_family(rng, 2, 2, 2)
        g = random_family(rng, 3, 2, 2)
        ct = choi(tensor(f, g))
        # (in1, in2, out1, out2) -> (in1, out1, in2, out2)
        lhs = reorder_subsystems(ct, [2, 3, 2, 2], [0, 2, 1, 3])
        rhs = np.kron(choi(f), choi(g))
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_associative_up_to_reordering(self, rng):
        f = random_family(rng, 2, 2, 2)
        g = random_family(rng, 2, 2, 1)
        h = random_family(rng, 2, 2, 2)
        left = choi(tensor(tensor(f, g), h))
        right = choi(tensor(f, tensor(g, h)))
        assert np.abs(left - right).max() <= 1e-12

    def test_requires_normalized(self):
        un = KrausFamily(d_in=2, d_out=2, ops=(np.eye(2),))
        with pytest.raises(ValueError):
            tensor(un, identity_family())

    def test_hermitian_flag_propagates(self):
        t = tensor(sigma_rank2(), ohno_rank_d(3))
        assert t.hermitian_kraus
        assert not tensor(sigma_rank2(), ohno_rank4()).hermitian_kraus


class TestMinimal:
    def test_duplicated_not_minimal(self):
        k = np.eye(2) / 2
        assert not is_minimal(KrausFamily(d_in=2, d_out=2, ops=(k, k)))

    def test_shift_family_minimal(self):
        assert is_minimal(shift_family(2, 2))

    def test_ohno_rank_d_minimal(self):
        assert is_minimal(ohno_rank_d(4))


class TestFamilyJson:
    def test_roundtrip(self, rng):
        f = random_family(rng, 2, 3, 2)
        obj = family_to_json(f)
        assert obj["d_in"] == 2 and obj["d_out"] == 3
        back = family_from_json(obj)
        assert all(np.abs(a - b).max() <= 1e-15 for a, b in zip(back.ops, f.ops))

    def test_roundtrip_exact(self):
        f = shift_family(2, 1)
        back = family_from_json(family_to_json_exact(f))
        assert back.exact_ops is not None
        assert choi_rank(back).mode == "exact"

    def test_roundtrip_of_fortran_ordered_operators(self, rng):
        """Fortran-ordered operators, given to the constructor or taken as the
        transposed views K.conj().T that adjoint reads, cross the JSON
        boundary bit for bit, through matrix_to_json and through the stack."""

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        for f in (shift_family(2, 2), random_family(rng, 2, 3, 3)):
            fortran = tuple(np.asfortranarray(k) for k in f.ops)
            daggers = tuple(k.conj().T for k in f.ops)
            built = (KrausFamily(d_in=f.d_in, d_out=f.d_out, ops=fortran), adjoint(f))
            for given, g in zip((fortran, daggers), built):
                assert not any(k.flags.c_contiguous for k in given)
                for k, stored in zip(given, g.ops):
                    row_major = [[z.real, z.imag] for z in k.astype(complex).flat]
                    assert np.array_equal(bits(matrix_to_json(k)["entries"]), bits(row_major))
                    assert matrix_to_json(k) == matrix_to_json(stored)
                back = family_from_json(family_to_json(g))
                for a, b in zip(back.ops, given):
                    assert np.array_equal(bits(a), bits(b))

    def test_rejects_missing_fields(self):
        op = {"rows": 1, "cols": 1, "entries": ["1"]}
        for obj in (
            {"d_in": 2},
            {"d_in": 1, "d_out": 1, "ops": None},
            {"d_in": 1, "d_out": 1, "ops": [{"rows": 1, "cols": 1, "entries": None}]},
            {"d_in": 1, "d_out": 1, "ops": [{"rows": 1, "cols": 1, "entries": ["1/0"]}]},
            {"d_in": True, "d_out": 1, "ops": [op]},
            {"d_in": 1, "d_out": 1.0, "ops": [op]},
        ):
            with pytest.raises(ValueError):
                family_from_json(obj)

    def test_exact_entries_are_converted_to_float_once(self, monkeypatch, rng):
        """The floats of parsed exact entries are the integer stack divided by
        the lcm, with no float() of any entry, and bit for bit the floats of
        the entries; only a family whose integers reach 2^53 takes float() of
        each entry, once."""
        doc = family_to_json_exact(shift_family(3, 2))
        num, den = (rng.integers(lo, hi, size=(3, 2, 2)).astype(object) for lo, hi in ((-30, 31), (1, 13)))
        fractions = list(np.frompyfunc(Fraction, 2, 1)(num, den))
        wide = [np.array([[Fraction(2**60 + 1, 3), 1], [0, Fraction(1, 7)]], dtype=object)]
        docs = [{"d_in": 2, "d_out": 2, "ops": [matrix_to_json(e) for e in m]} for m in (fractions, wide)]
        calls = []
        to_float = Fraction.__float__
        monkeypatch.setattr(Fraction, "__float__", lambda x: calls.append(x) or to_float(x))
        back, parsed = family_from_json(doc), family_from_json(docs[0])
        assert calls == []
        big = family_from_json(docs[1])
        assert len(calls) == 4
        monkeypatch.undo()
        for g, given in ((parsed, fractions), (big, wide)):
            assert same_bits(g.ops, np.array([[[float(x) for x in row] for row in e] for e in given]))
        f = shift_family(3, 2)
        scale = np.sqrt(float(sum((e.astype(float) ** 2).sum() for e in f.exact_ops)))
        for a, b in zip(back.ops, f.ops):
            assert np.abs(a / scale - b).max() <= 1e-15

    def test_exact_operators_as_their_own_floats(self):
        e = np.array([[Fraction(1, 3), 0], [0, 2]], dtype=object)
        f = KrausFamily(d_in=2, d_out=2, ops=(e, e), exact_ops=(e, e))
        assert all(np.array_equal(k, np.array([[1 / 3, 0], [0, 2]], dtype=complex)) for k in f.ops)
        # an int64 past 2^53 rounds to the nearest float, as float(int) does
        big = np.array([[2**60 + 1, 0], [0, -(2**62) - 3]], dtype=object)
        g = KrausFamily(d_in=2, d_out=2, ops=(big,), exact_ops=(big,))
        assert g.integer_ops.dtype == np.int64
        assert same_bits(g.ops[0], np.array([[float(2**60 + 1), 0.0], [0.0, float(-(2**62) - 3)]]))
        with pytest.raises(ValueError, match="not rational"):
            bad = np.array([[0.5, 0], [0, 1]], dtype=object)
            KrausFamily(d_in=2, d_out=2, ops=(bad,), exact_ops=(bad,))


def family_to_json_exact(f):
    from extremal_marginals import matrix_to_json

    return {
        "d_in": f.d_in,
        "d_out": f.d_out,
        "ops": [matrix_to_json(e) for e in f.exact_ops],
        "hermitian_kraus": f.hermitian_kraus,
    }

import numpy as np
import pytest

from extremal_marginals import (
    KrausFamily,
    choi,
    marginals,
    min_eigenvalue,
    ohno_rank4,
    ohno_rank_d,
    partial_transpose,
    ppt,
    rank8_66,
    random_family,
    rank8k_6k,
    separability_verdict,
    shift_family,
    sigma_rank2,
    tensor,
)
from extremal_marginals import separability
from extremal_marginals.linalg import _SPLIT_MIN_SIDE, _blocks
from extremal_marginals.separability import SeparabilityVerdict
from conftest import random_density, random_unitary, rebuilt


def identity_channel():
    return KrausFamily(d_in=2, d_out=2, ops=(np.eye(2) / np.sqrt(2),))


def depolarizing_to_maximally_mixed():
    """(2, 2) family whose Choi is I4/4: PPT but with Choi rank 4 > d_out."""
    ops = []
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2))
            e[a, b] = 0.5
            ops.append(e)
    return KrausFamily(d_in=2, d_out=2, ops=tuple(ops))


def tiles_upb_family(d_out):
    """The Tiles UPB state (I - sum_k P_k)/4 on 3 x 3 (Bennett et al., PRL 82,
    5385, 1999), bound entangled: PPT, Choi rank 4 and marginal ranks 3 and 3,
    as a family on (3, d_out) whose operators are zero below the third row."""
    e = np.eye(3)
    tiles = [
        np.kron(e[0], e[0] - e[1]) / np.sqrt(2),
        np.kron(e[0] - e[1], e[2]) / np.sqrt(2),
        np.kron(e[2], e[1] - e[2]) / np.sqrt(2),
        np.kron(e[1] - e[2], e[0]) / np.sqrt(2),
        np.kron(e.sum(axis=0), e.sum(axis=0)) / 3,
    ]
    w, v = np.linalg.eigh((np.eye(9) - sum(np.outer(t, t) for t in tiles)) / 4)
    # Choi index input * 3 + output, so operator row r, column c is vec[c * 3 + r]
    ops = (v[:, w > 0.1] * np.sqrt(w[w > 0.1])).T.reshape(-1, 3, 3).transpose(0, 2, 1)
    return KrausFamily(d_in=3, d_out=d_out, ops=np.pad(ops, ((0, 0), (0, d_out - 3), (0, 0))))


def replacement_channel():
    """X -> tr(X) |0><0| on (3, 3): separable, Choi rank 3 = rank rho1, and
    rank rho2 = 1, so only the input side reaches the Choi rank."""
    units = [np.zeros((3, 3), dtype=object) for _ in range(3)]
    for i, u in enumerate(units):
        u[0, i] = 1
    ops = tuple(u.astype(float) / np.sqrt(3) for u in units)
    return KrausFamily(d_in=3, d_out=3, ops=ops, exact_ops=tuple(units))


class TestPpt:
    def test_bell_state_is_npt(self):
        flag, smallest = ppt(choi(identity_channel()), 2, 2)
        assert not flag
        assert smallest == pytest.approx(-0.5, abs=1e-12)

    def test_shift_family_choi_is_ppt(self):
        flag, smallest = ppt(choi(shift_family(3, 1)), 3, 4)
        assert flag
        assert smallest >= -1e-12

    def test_product_states_are_ppt(self, rng):
        for _ in range(5):
            state = np.kron(random_density(rng, 2), random_density(rng, 3))
            flag, smallest = ppt(state, 2, 3)
            assert flag
            assert smallest >= -1e-10

    def test_wrong_side_raises(self):
        with pytest.raises(ValueError):
            ppt(np.eye(5), 2, 3)

    def test_invariant_under_local_unitaries(self, rng):
        state = choi(shift_family(2, 2))
        base, _ = ppt(state, 2, 4)
        for _ in range(25):
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 4)
            w = np.kron(u, v)
            rotated = w @ state @ w.conj().T
            flag, _ = ppt(rotated, 2, 4)
            assert flag == base


class TestSeparabilityVerdict:
    def test_shift_2_3_separable_with_eb_note(self):
        v = separability_verdict(shift_family(2, 3))
        assert v.conclusion == "separable"
        assert v.ppt
        assert v.choi_rank == 5
        assert v.criterion_applicable

    def test_identity_channel_entangled(self):
        v = separability_verdict(identity_channel())
        assert v.conclusion == "entangled"
        assert not v.ppt and not v.criterion_applicable
        assert v.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-10)

    def test_ppt_high_rank_undetermined(self):
        v = separability_verdict(depolarizing_to_maximally_mixed())
        assert v.ppt
        assert v.choi_rank == 4
        assert not v.criterion_applicable
        assert v.conclusion == "undetermined"

    @pytest.mark.parametrize(
        "d_out, tol",
        [
            pytest.param(d_out, tol, id=str(d_out) if tol is None else f"{d_out}-tol{tol}")
            for d_out in (4, 6)
            for tol in (None, 0.3, 1.0)
        ],
    )
    def test_padded_tiles_upb_state_is_undetermined(self, d_out, tol):
        """Choi rank 4 <= d_out, but above both marginal ranks: the low-rank
        criterion does not apply to this PPT entangled state, also when a
        large ``tol`` shrinks the reported Choi rank below them (to 0 at 1.0)."""
        f = tiles_upb_family(d_out)
        mp = marginals(f)
        assert [np.linalg.matrix_rank(rho) for rho in (mp.rho1, mp.rho2)] == [3, 3]
        v = separability_verdict(f, tol=tol)
        assert v.ppt and v.choi_rank == (0 if tol == 1.0 else 4)
        assert not v.criterion_applicable and v.conclusion == "undetermined"

    @pytest.mark.parametrize("exact", [True, False])
    def test_marginal_ranks_output_side_first(self, monkeypatch, exact):
        """rank rho2 is taken first, and rank rho1 only when rank rho2 falls
        short of the Choi rank; both exactly for a rational family."""
        modes = []
        ranked = separability.rank
        monkeypatch.setattr(separability, "rank", lambda m, mode: modes.append(mode) or ranked(m, mode))
        mode = "exact" if exact else "numerical"
        for f, calls in ((shift_family(3, 2), 1), (replacement_channel(), 2)):
            if not exact:
                f = KrausFamily(d_in=f.d_in, d_out=f.d_out, ops=f.ops)
            modes.clear()
            v = separability_verdict(f)
            assert v.criterion_applicable and v.conclusion == "separable"
            assert modes == [mode] * calls
        modes.clear()
        assert separability_verdict(identity_channel()).conclusion == "entangled"
        assert modes == []

    def test_sigma_rank2_reported_not_asserted(self):
        v = separability_verdict(sigma_rank2())
        assert v.conclusion in ("separable", "entangled")

    @pytest.mark.parametrize(
        "f, conclusion",
        [
            (sigma_rank2(), "entangled"),
            (ohno_rank4(), "entangled"),
            (rank8_66(), "entangled"),
            *((ohno_rank_d(d), "entangled") for d in (3, 5, 8, 12)),
            (rank8k_6k(3), "entangled"),
            (rank8k_6k(4), "entangled"),
            (shift_family(3, 2), "separable"),
            (shift_family(6, 8), "separable"),
        ],
        ids=lambda x: x if isinstance(x, str) else f"{x.d_in}x{x.d_out}-r{x.r}",
    )
    def test_real_pipeline_keeps_pt_minimum_and_verdict(self, f, conclusion):
        """Real families take real products and eigensolves, split into
        principal blocks; the complex pipeline of the same matrices and the
        unsplit eigensolve give the same PT minimum."""
        c = choi(f)
        assert c.dtype == np.float64
        real = ppt(c, f.d_in, f.d_out)
        cplx = ppt(c.astype(complex), f.d_in, f.d_out)
        assert real[0] == cplx[0]
        assert abs(real[1] - cplx[1]) <= 1e-13
        pt = partial_transpose(c, f.d_in, f.d_out, "first")
        assert pt.dtype == np.float64
        assert abs(real[1] - np.linalg.eigvalsh(pt)[0]) <= 1e-13
        v = separability_verdict(f)
        assert (v.ppt, v.conclusion) == (real[0], conclusion)
        assert abs(v.min_pt_eigenvalue - real[1]) <= 1e-13

    def test_rational_family_takes_no_tol(self):
        # its Choi rank is exact, so a tol is refused rather than ignored;
        # the same operators without exact entries take it
        f = shift_family(3, 2)
        with pytest.raises(ValueError, match="tol"):
            separability_verdict(f, tol=100.0)
        v = separability_verdict(KrausFamily(d_in=3, d_out=5, ops=f.ops), tol=100.0)
        assert (v.choi_rank, v.conclusion) == (0, "separable")

    def test_grid_families_separable(self):
        for d, m in [(2, 1), (3, 2), (4, 1)]:
            v = separability_verdict(shift_family(d, m))
            assert v.conclusion == "separable"
            assert v.choi_rank == d + m

    def test_conclusion_follows_from_ppt_and_criterion(self):
        # an NPT state is entangled whatever the criterion says
        cases = [
            (False, False, "entangled"),
            (False, True, "entangled"),
            (True, False, "undetermined"),
            (True, True, "separable"),
        ]
        for is_ppt, applicable, conclusion in cases:
            v = SeparabilityVerdict(
                ppt=is_ppt,
                min_pt_eigenvalue=0.0 if is_ppt else -0.1,
                choi_rank=2,
                choi_rank_engine="svd",
                criterion_applicable=applicable,
            )
            assert v.conclusion == v.to_json()["conclusion"] == conclusion

    def test_zero_family_is_refused(self, monkeypatch):
        # its Choi matrix is the zero matrix, which is no state; no rank is taken
        def no_rank(*args, **kwargs):
            raise AssertionError("a rank was computed")

        monkeypatch.setattr(separability, "choi_rank", no_rank)
        monkeypatch.setattr(separability, "rank", no_rank)
        for f in (
            KrausFamily(d_in=2, d_out=3, ops=np.zeros((2, 3, 2))),
            KrausFamily(d_in=2, d_out=2, ops=[np.zeros((2, 2))], exact_ops=[np.zeros((2, 2), int)]),
        ):
            with pytest.raises(ValueError, match="zero family"):
                separability_verdict(f)

    def test_json_mirrors_fields(self):
        v = separability_verdict(shift_family(2, 1))
        obj = v.to_json()
        assert obj["conclusion"] == "separable"
        assert obj["choi_rank"] == 3
        assert obj["choi_rank_engine"] == "cholesky"
        assert set(obj) == {
            "ppt",
            "min_pt_eigenvalue",
            "choi_rank",
            "choi_rank_engine",
            "criterion_applicable",
            "conclusion",
        }


def scaled(f, s):
    return KrausFamily(d_in=f.d_in, d_out=f.d_out, ops=tuple(s * k for k in f.ops))


class TestScaleInvariantPPT:
    """The PPT threshold and the Hermiticity check are relative to the Choi
    trace sum_i ||K_i||^2, so scaling every operator changes no verdict."""

    def test_scaled_shift_family_is_separable(self):
        # min PT eigenvalue -2.2e-7 at scale 1e5, rounding noise of a Choi trace 1e10
        v = separability_verdict(scaled(shift_family(3, 2), 1e5))
        assert v.ppt and v.conclusion == "separable"
        assert ppt(choi(scaled(shift_family(3, 2), 1e5)), 3, 5)[0]

    @pytest.mark.parametrize("s", [1e-5, 1.0, 1e5])
    def test_entangled_families_stay_entangled(self, s):
        # ohno-d 12 takes the sparse partial-transpose path, ohno4 the dense one
        for f in (ohno_rank4(), ohno_rank_d(12)):
            v = separability_verdict(scaled(f, s))
            assert not v.ppt and v.conclusion == "entangled"
            base = separability_verdict(f).min_pt_eigenvalue
            assert v.min_pt_eigenvalue == pytest.approx(s * s * base, rel=1e-12)

    def test_large_complex_operators_pass_the_hermiticity_check(self, rng):
        # entries ~1e3-1e4: the dense Choi product deviates from Hermitian by
        # up to ~1e-7, far above an absolute 1e-12 but rounding for its trace
        for _ in range(40):
            d_in, d_out = (int(x) for x in rng.integers(1, 7, size=2))
            shape = (int(rng.integers(1, 8)), d_out, d_in)
            ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ops *= rng.random(shape) < 0.4
            f = KrausFamily(d_in=d_in, d_out=d_out, ops=tuple(ops))
            if not ops.any():
                # a zero family is no state at any scale
                for s in (1.0, 1e3, 1e4):
                    with pytest.raises(ValueError, match="zero family"):
                        separability_verdict(scaled(f, s))
                continue
            small = separability_verdict(f)
            for s in (1e3, 1e4):
                v = separability_verdict(scaled(f, s))
                assert (v.ppt, v.conclusion) == (small.ppt, small.conclusion)


class TestSparsePartialTranspose:
    """The partial-transposed Choi matrix of a sparse family is built dense,
    from its Choi matrix, and its eigensolve splits it into the principal
    blocks of its nonzero pattern."""

    def families(self, rng):
        out = [sigma_rank2(), ohno_rank4(), rank8_66(), ohno_rank_d(8), ohno_rank_d(12)]
        out += [rank8k_6k(3), shift_family(3, 2), shift_family(7, 10)]
        for _ in range(30):
            d_in, d_out = (int(x) for x in rng.integers(1, 7, size=2))
            shape = (int(rng.integers(1, 8)), d_out, d_in)
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            m *= rng.random(shape) < 0.4
            if m.any():
                out.append(KrausFamily(d_in=d_in, d_out=d_out, ops=tuple(m)))
        return out

    def test_equals_the_dense_partial_transpose(self, rng):
        """The split eigensolve of the partial-transposed Choi matrix, through
        min_eigenvalue, ppt and the verdict's spectrum, against one eigvalsh
        of the whole matrix."""
        for f in self.families(rng):
            pt = partial_transpose(choi(f), f.d_in, f.d_out, "first")
            w = np.linalg.eigvalsh(pt)
            trace = float(np.vdot(f.ops, f.ops).real)
            tol = 8 * np.finfo(float).eps * trace
            assert abs(min_eigenvalue(pt) - w[0]) <= tol
            assert abs(ppt(choi(f), f.d_in, f.d_out)[1] - w[0]) <= tol
            if f.factors is None:
                smallest, largest, tr = separability._pt_spectrum(f)
                assert abs(smallest - w[0]) <= tol and abs(largest - w[-1]) <= tol
                assert tr == pytest.approx(trace, rel=1e-14)
            if pt.shape[0] >= _SPLIT_MIN_SIDE:
                # ohno-d 8 and 12, rank8k 3 and paper 7 10 fall apart
                assert sum(s.shape[0] for s in _blocks(pt, symmetric=True)) > 1

    def test_crossover(self, monkeypatch):
        calls = []
        monkeypatch.setattr(separability, "choi", lambda f: calls.append(f) or choi(f))
        # every family that is not a tensor builds its Choi matrix once: the
        # sparse ohno-d 12 (side 144, split by the eigensolve) as ohno-d 5
        # (side 25, under the split side of 48)
        for d in (12, 5):
            f = ohno_rank_d(d)
            v = separability_verdict(f)
            assert len(calls) == 1 and calls[0] is f
            pt = partial_transpose(choi(f), d, d, "first")
            assert abs(v.min_pt_eigenvalue - min_eigenvalue(pt)) <= 8 * np.finfo(float).eps
            calls.clear()
        # rank8-66, a tensor, builds no Choi matrix of its own, of side 36,
        # but one per factor, of sides 4 and 9, both under the split side
        g = rank8_66()
        separability_verdict(g)
        assert len(calls) == 2 and all(c is h for c, h in zip(calls, g.factors))


class TestTensorPartialTranspose:
    """A family that ``tensor`` built takes its PPT margin from its factors'
    partial-transpose spectra; the same operators rebuilt without factors
    are eigensolved whole and must give the same verdict."""

    def tensors(self, rng):
        out = [rank8_66(), rank8k_6k(3), rank8k_6k(4)]
        for _ in range(8):
            a, b = (
                random_family(rng, *(int(x) for x in rng.integers(1, 4, size=3)))
                for _ in range(2)
            )
            out += [tensor(a, b), tensor(b, a)]
        for _ in range(3):
            a, b, c = (
                random_family(rng, *(int(x) for x in rng.integers(1, 4, size=3)))
                for _ in range(3)
            )
            out += [tensor(tensor(a, b), c), tensor(a, tensor(b, c))]
        shift = shift_family(2, 1)
        a = random_family(rng, 2, 3, 2)
        out += [tensor(shift, a), tensor(a, shift), tensor(shift, shift), tensor(sigma_rank2(), shift)]
        return out

    def test_verdict_matches_the_rebuilt_family(self, rng):
        seen = set()
        for f in self.tensors(rng):
            assert f.factors is not None
            plain = rebuilt(f)
            assert plain.factors is None
            v, w = separability_verdict(f), separability_verdict(plain)
            fields = ("ppt", "conclusion", "choi_rank", "choi_rank_engine", "criterion_applicable")
            assert [getattr(v, x) for x in fields] == [getattr(w, x) for x in fields]
            trace = float(np.vdot(f.ops, f.ops).real)
            assert abs(v.min_pt_eigenvalue - w.min_pt_eigenvalue) <= 8 * np.finfo(float).eps * trace
            seen.add(v.conclusion)
        assert seen == {"entangled", "separable", "undetermined"}

    def test_extremes_are_the_whole_spectrum_ends(self, rng):
        for f in self.tensors(rng):
            smallest, largest, trace = separability._pt_spectrum(f)
            w = np.linalg.eigvalsh(partial_transpose(choi(f), f.d_in, f.d_out, "first"))
            assert abs(smallest - w[0]) <= 8 * np.finfo(float).eps * trace
            assert abs(largest - w[-1]) <= 8 * np.finfo(float).eps * trace
            assert trace == pytest.approx(1.0, abs=1e-14)

    def test_every_call_eigensolves_the_leaves(self, monkeypatch):
        # rank8k 4 = ohno-d 4 (x) (sigma (x) ohno4): three leaves per verdict,
        # and nothing is kept from one call to the next
        solved = []
        real = separability._eigenvalue_range
        monkeypatch.setattr(
            separability, "_eigenvalue_range", lambda h, atol: solved.append(h.shape) or real(h, atol)
        )
        f = rank8k_6k(4)
        for n in (1, 2):
            separability_verdict(f)
            assert solved == [(16, 16), (4, 4), (9, 9)] * n

    def test_factors_are_set_only_by_tensor(self):
        with pytest.raises(TypeError):
            KrausFamily(d_in=1, d_out=1, ops=(np.eye(1),), factors=None)
        f, g = sigma_rank2(), ohno_rank4()
        t = tensor(f, g)
        assert t.factors[0] is f and t.factors[1] is g
        assert f.factors is None and rebuilt(t).factors is None
        assert "factors" not in repr(t)

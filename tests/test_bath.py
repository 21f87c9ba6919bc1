import math

import numpy as np
import pytest
import scipy.linalg

from bomric import bath
from bomric.bath import (
    ENV_DIM_CAP,
    BathMode,
    BathSpec,
    DimensionCapError,
    annihilation,
    bath_hamiltonian,
    comparison_levels,
    coupling_operator,
    displaced_check,
    weyl_operator,
    weyl_unitarity_defect,
)
from bomric.linalg import frobenius_norm, hermitian_eig

from conftest import dephasing_operator, random_hermitian


def test_annihilation_matrix_elements():
    spec = BathSpec((BathMode(1.0, 0.1),), fock_cutoff=5)
    a = annihilation(spec, 0)
    for n in range(1, 6):
        assert abs(a[n - 1, n] - math.sqrt(n)) <= 1e-15
    # everything off that diagonal vanishes
    assert np.count_nonzero(a) == 5


def test_commutator_truncation_structure():
    # [a, a+] = 1 except the corner eaten by the cutoff
    spec = BathSpec((BathMode(1.0, 0.1),), fock_cutoff=6)
    a = annihilation(spec, 0)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(7, dtype=complex)
    expected[6, 6] = -6.0
    assert frobenius_norm(comm - expected) <= 1e-13


def test_two_mode_hamiltonian_diagonal():
    spec = BathSpec((BathMode(2.0, 0.0), BathMode(1.0, 0.0)), fock_cutoff=1)
    h = bath_hamiltonian(spec)
    # mode 0 is the slow kron factor: n0 in {0,1} outer, n1 inner
    assert np.allclose(np.diag(h), [0.0, 1.0, 2.0, 3.0])
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_hamiltonian_spectrum_is_tensor_sum():
    spec = BathSpec((BathMode(1.5, 0.0), BathMode(0.7, 0.0)), fock_cutoff=3)
    h = bath_hamiltonian(spec)
    w, _ = hermitian_eig(h)
    oracle = sorted(1.5 * n0 + 0.7 * n1 for n0 in range(4) for n1 in range(4))
    assert np.allclose(w, oracle)


def test_coupling_operator_hermitian(small_bath):
    v = coupling_operator(small_bath)
    assert frobenius_norm(v - v.conj().T) <= 1e-14


def test_bath_operators_are_built_once_and_read_only(small_bath):
    assert np.array_equal(small_bath.he, bath_hamiltonian(small_bath))
    assert np.array_equal(small_bath.v, coupling_operator(small_bath))
    assert small_bath.he is small_bath.he and small_bath.v is small_bath.v
    for m in (small_bath.he, small_bath.v):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            m += 1.0


def test_coupling_operator_matrix_elements():
    g = 0.3 + 0.4j
    spec = BathSpec((BathMode(1.0, g),), fock_cutoff=3)
    v = coupling_operator(spec)
    a = annihilation(spec, 0)
    assert frobenius_norm(v - (np.conj(g) * a + g * a.conj().T)) <= 1e-15


def test_displacement_parameters():
    # W = D(-lam_1) (x) D(-lam_2) with lam_k = g_k / omega_k, and
    # <1|D(-lam)|0> / <0|D(-lam)|0> = -lam for each mode's factor
    spec = BathSpec((BathMode(2.0, 0.5), BathMode(4.0, 1.0 + 1.0j)), fock_cutoff=2)
    w, d = weyl_operator(spec), spec.local_dim
    lam = -w[[d, 1], 0] / w[0, 0]
    assert np.allclose(lam, [0.25, 0.25 + 0.25j])


def test_weyl_vacuum_amplitude():
    # <0|W|0> = exp(-|lambda|^2 / 2) for a coherent displacement
    spec = BathSpec((BathMode(2.0, 0.6),), fock_cutoff=20)
    w = weyl_operator(spec)
    lam = 0.6 / 2.0
    assert abs(w[0, 0] - math.exp(-abs(lam) ** 2 / 2)) <= 1e-12


def test_weyl_column_matches_coherent_state():
    # W|0> is the coherent state at amplitude -lambda; that sign makes
    # W H_E W+ pick up +V rather than -V
    spec = BathSpec((BathMode(1.0, 0.4),), fock_cutoff=25)
    w = weyl_operator(spec)
    lam = 0.4
    oracle = np.array(
        [math.exp(-lam**2 / 2) * (-lam) ** n / math.sqrt(math.factorial(n)) for n in range(26)]
    )
    assert np.linalg.norm(w[:, 0] - oracle) <= 1e-10


@pytest.mark.parametrize("lam", [0.01, 0.3, 1 + 0.5j, -3j, 10])
@pytest.mark.parametrize("cutoff", [1, 2, 7, 12, 31, 63])
def test_weyl_factor_matches_scipy_expm(cutoff, lam):
    # the factor takes the package's Taylor kernel; scipy's Pade expm of the
    # same padded generator is the oracle
    local_dim = cutoff + 1
    dim = local_dim + bath._WEYL_PAD
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    want = scipy.linalg.expm(np.conj(lam) * a - lam * a.T)[:local_dim, :local_dim]
    got = bath._weyl_single(lam, local_dim)
    assert frobenius_norm(got - want) <= 1e-13 * frobenius_norm(want)


def test_comparison_levels():
    assert comparison_levels(BathSpec((BathMode(1.0, 0.1),), fock_cutoff=4)) == 2
    assert comparison_levels(BathSpec((BathMode(1.0, 0.1),), fock_cutoff=5)) == 3
    assert comparison_levels(BathSpec((BathMode(1.0, 0.1),), fock_cutoff=12)) == 6


def test_weyl_defect_monotone_on_even_cutoffs():
    defects = []
    for n_max in (2, 4, 6, 8, 10, 12):
        spec = BathSpec((BathMode(1.0, 0.2),), fock_cutoff=n_max)
        defects.append(weyl_unitarity_defect(spec))
    for a, b in zip(defects, defects[1:]):
        assert b < a


def _vacuum_defect(spec):
    """||W†W - 1|| on the vacuum column alone: the level-1 defect of one mode."""
    w = weyl_operator(spec)
    return frobenius_norm((w.conj().T @ w - np.eye(spec.env_dim))[:1, :1])


def test_weyl_defect_monotone_at_fixed_level():
    # coupling large enough that the defect stays above roundoff
    defects = []
    for n_max in range(2, 13):
        spec = BathSpec((BathMode(1.0, 0.8),), fock_cutoff=n_max)
        defects.append(_vacuum_defect(spec))
    for a, b in zip(defects, defects[1:]):
        assert b < a


def test_displaced_check_recovers_shift():
    # fitted constant equals -sum |g|^2 / omega
    spec = BathSpec((BathMode(2.0, 0.3), BathMode(1.0, 0.1j)), fock_cutoff=7)
    chk = displaced_check(spec)
    expected = -(0.09 / 2.0 + 0.01 / 1.0)
    assert abs(chk["c_expected"] - expected) <= 1e-15
    assert abs(chk["c_fit"] - chk["c_expected"]) <= 1e-6
    assert chk["residual"] <= 1e-6


@pytest.mark.parametrize("sign", [0, 1])
def test_displaced_check_residual_is_nan_when_either_sign_is(monkeypatch, sign):
    # Python's max would drop a NaN met second; the worse sign carries it
    spec = BathSpec((BathMode(2.0, 0.3),), fock_cutoff=7)
    norm, calls = bath.linalg.frobenius_norm, []

    def poisoned(a):
        calls.append(None)
        return math.nan if len(calls) - 1 == sign else norm(a)

    monkeypatch.setattr(bath.linalg, "frobenius_norm", poisoned)
    assert math.isnan(displaced_check(spec)["residual"])
    assert len(calls) == 2


def test_displaced_shift_against_ground_eigenvalue():
    # at large cutoff the bottom of H_E +/- V sits at the shift value
    spec = BathSpec((BathMode(2.0, 0.3),), fock_cutoff=40)
    h = bath_hamiltonian(spec)
    v = coupling_operator(spec)
    w, _ = hermitian_eig(h + v)
    assert abs(w[0] - (-0.09 / 2.0)) <= 1e-10


def test_dephasing_commutes_for_diagonal_m(small_bath):
    # with M diagonal both blocks share the eigenbasis of H_E + c V
    m = np.diag([0.7, -0.2]).astype(complex)
    h = dephasing_operator(small_bath, m)
    n = small_bath.env_dim
    hq = np.kron(np.diag([1.0, -1.0]), np.eye(n))
    assert frobenius_norm(h @ hq - hq @ h) <= 1e-13


def test_bath_mode_validation():
    with pytest.raises(ValueError):
        BathMode(-1.0, 0.1)
    with pytest.raises(ValueError):
        BathMode(0.0, 0.1)


def test_dimension_cap():
    assert ENV_DIM_CAP == 64
    with pytest.raises(DimensionCapError):
        BathSpec((BathMode(1.0, 0.1),), fock_cutoff=64)  # dim 65
    with pytest.raises(DimensionCapError):
        BathSpec((BathMode(1.0, 0.1), BathMode(2.0, 0.1)), fock_cutoff=8)  # 81
    spec = BathSpec((BathMode(1.0, 0.1), BathMode(2.0, 0.1)), fock_cutoff=7)  # 64
    assert spec.env_dim == 64


@pytest.mark.parametrize(
    "modes, cutoff",
    [(((1e308, 0.2),), 8), (((1e308, 0.2), (1e308, 0.2)), 1), (((1.0, 1e308),), 4)],
)
def test_bath_operators_past_float64_are_rejected(modes, cutoff):
    # the largest entry, n_max sum(omega) of H_E or sqrt(n_max) |g| of V, is inf
    with pytest.raises(ValueError, match="H_E or V overflows float64"):
        BathSpec(tuple(BathMode(w, g) for w, g in modes), fock_cutoff=cutoff)


def test_bath_operators_at_the_float64_edge_are_kept():
    spec = BathSpec((BathMode(1e308, 1e307),), fock_cutoff=1)
    assert np.isfinite(spec.he).all() and np.isfinite(spec.v).all()
    assert spec.he[1, 1] == 1e308


def test_fock_cutoff_validation():
    with pytest.raises(ValueError):
        BathSpec((BathMode(1.0, 0.1),), fock_cutoff=0)
    with pytest.raises(ValueError):
        BathSpec((), fock_cutoff=4)

import math

import numpy as np
import pytest

from wignermoments import cli, moments, states, wigner
from wignermoments.errors import (
    CutoffTooSmallError,
    DegenerateCovarianceError,
    InvalidArgumentError,
    SizeLimitError,
)


def test_fock_state_matrix():
    st = states.fock_state(2)
    assert st.modes == 1
    assert st.dim == 3
    assert st.matrix[2, 2] == 1.0
    assert np.count_nonzero(st.matrix) == 1
    assert st.purity() == pytest.approx(1.0, abs=1e-14)


def test_fock_state_padding():
    st = states.fock_state(1, cutoff=5)
    assert st.dim == 6
    assert st.matrix[1, 1] == 1.0


def test_fock_spec_validation():
    with pytest.raises(InvalidArgumentError):
        states.Fock(-1)
    with pytest.raises(CutoffTooSmallError):
        states.fock_state(3, cutoff=2)


def test_noon_state_structure():
    st = states.noon_state(2)
    d = st.dim
    ket = np.zeros(d * d, dtype=complex)
    ket[2 * d + 0] = 1 / math.sqrt(2)
    ket[0 * d + 2] = math.cos(math.pi) + 1j * math.sin(math.pi)
    ket[0 * d + 2] /= math.sqrt(2)
    expected = np.outer(ket, ket.conj())
    assert np.allclose(st.matrix, expected, atol=1e-15)
    assert st.modes == 2


def test_noon_reduced_state():
    # tracing out one arm of (|20> - |02>)/sqrt(2) leaves an even mixture
    st = states.noon_state(2, cutoff=4)
    red = np.trace(st.matrix.reshape(5, 5, 5, 5), axis1=1, axis2=3)
    expect = np.zeros((5, 5))
    expect[0, 0] = 0.5
    expect[2, 2] = 0.5
    assert np.allclose(red, expect, atol=1e-14)


def test_noon_phase_range():
    with pytest.raises(InvalidArgumentError):
        states.Noon(2, phi=-0.1)
    with pytest.raises(InvalidArgumentError):
        states.Noon(2, phi=2 * math.pi)
    states.Noon(2, phi=0.0)


def test_tmsv_state_schmidt_coefficients():
    r = 0.5
    st = states.tmsv_state(r)
    lam = math.tanh(r)
    d = st.dim
    # diagonal weights are (1 - lam^2) lam^(2n) after renormalization
    rho4 = st.matrix.reshape(d, d, d, d)
    probs = np.array([np.real(rho4[n, n, n, n]) for n in range(d)])
    expected = (1 - lam**2) * lam ** (2 * np.arange(d))
    assert np.allclose(probs, expected / np.sum(expected), atol=1e-12)


def test_tmsv_min_cutoff_monotone():
    assert states.tmsv_min_cutoff(0.1) < states.tmsv_min_cutoff(1.0)
    with pytest.raises(CutoffTooSmallError):
        states.tmsv_state(1.0, cutoff=2)


@pytest.mark.parametrize(
    "min_cutoff, build",
    [
        (states.tmsv_min_cutoff, lambda r: states.tmsv_state(r, cutoff=5)),
        (states.spssv_min_cutoff, lambda r: states.spssv_state(r, cutoff=5)),
    ],
)
def test_min_cutoff_rejects_saturated_squeezing(min_cutoff, build):
    # tanh(20) rounds to 1, so the tail lam^{2(c+1)} never shrinks
    assert math.tanh(20.0) == 1.0
    with pytest.raises(CutoffTooSmallError, match="no finite cutoff"):
        min_cutoff(20.0)
    with pytest.raises(CutoffTooSmallError):
        build(20.0)
    assert min_cutoff(3.0) > 5  # tanh(3) < 1 still has a finite answer


def test_tmsv_gaussian_covariance():
    st = states.tmsv_gaussian(0.5)
    c, s = math.cosh(1.0), math.sinh(1.0)
    expect = 0.5 * np.array(
        [[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]]
    )
    assert np.allclose(st.covariance, expect, atol=1e-14)
    assert np.linalg.det(st.covariance) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert st.purity() == pytest.approx(1.0, rel=1e-12)


def test_spssv_antisymmetric_for_odd_parity():
    st = states.spssv_state(0.4, parity=1)
    d = st.dim
    mat = st.matrix.reshape(d, d, d, d)
    swapped = np.transpose(mat, (1, 0, 3, 2))
    assert np.allclose(mat, swapped, atol=1e-14)  # density matrix symmetric under swap
    # overlap with TMSV vanishes: opposite exchange symmetry of the kets
    tm = states.tmsv_state(0.4, cutoff=st.cutoff)
    overlap = np.real(np.trace(st.matrix @ tm.matrix))
    assert abs(overlap) < 1e-12


def test_mixed_fock01_matrix():
    st = states.mixed_fock01(0.3)
    assert np.allclose(st.matrix, np.diag([0.3, 0.7]), atol=1e-15)
    assert states.mixed_fock01(0.3, cutoff=None).cutoff == 1
    assert states.mixed_fock01(0.3, cutoff=3).cutoff == 3
    with pytest.raises(InvalidArgumentError):
        states.MixedFock01(1.2)


def test_fock_state_validation_rejects_bad_matrices():
    good = np.diag([0.5, 0.5]).astype(complex)
    states.FockState(good, modes=1)
    with pytest.raises(InvalidArgumentError):
        states.FockState(good * 2, modes=1)  # trace 2
    bad = good.copy()
    bad[0, 1] = 0.1  # not Hermitian
    with pytest.raises(InvalidArgumentError):
        states.FockState(bad, modes=1)
    neg = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvalidArgumentError):
        states.FockState(neg, modes=1)


def test_fock_state_two_mode_dimension_check():
    with pytest.raises(InvalidArgumentError):
        states.FockState(np.eye(6) / 6, modes=2)  # 6 is not a perfect square
    states.FockState(np.eye(9) / 9, modes=2)


def test_fock_state_size_limit():
    with pytest.raises(SizeLimitError):
        states.FockState(np.eye(3000) / 3000, modes=1)


def test_from_ket_size_cap(monkeypatch):
    # tmsv_state(3.0) needs cutoff 1857: a side of 3,452,164, i.e. a 173 TiB
    # outer product; the cap refuses it before allocating
    with pytest.raises(SizeLimitError):
        states.tmsv_state(3.0)
    with pytest.raises(SizeLimitError):
        states.FockState.from_ket(np.ones(states.MAX_DENSE_SIDE + 1))
    monkeypatch.setattr(states, "MAX_DENSE_SIDE", 16)
    assert states.FockState.from_ket(np.ones(16)).cutoff == 15
    with pytest.raises(SizeLimitError):
        states.FockState.from_ket(np.ones(17))
    monkeypatch.undo()
    # the largest default-cutoff squeezed pairs of the catalog stay admitted
    assert states.tmsv_state(1.0).matrix.shape == (1156, 1156)
    assert states.spssv_state(1.0).matrix.shape == (1681, 1681)


def test_fock_custom_refuses_another_cutoff():
    spec = states.FockCustom.from_matrix(np.diag([0.5, 0.3, 0.2]))
    assert states.state_from_spec(spec).cutoff == 2
    assert states.state_from_spec(spec, 2).cutoff == 2
    for cutoff in (1, 3, 5):
        with pytest.raises(InvalidArgumentError, match="cutoff 2"):
            states.state_from_spec(spec, cutoff)
    pair = states.FockCustom.from_matrix(np.eye(9) / 9, modes=2)
    assert states.state_from_spec(pair, 2).cutoff == 2
    with pytest.raises(InvalidArgumentError):
        states.state_from_spec(pair, 8)


def test_gaussian_state_validation():
    states.GaussianState(np.zeros(2), np.eye(2) / 2)
    with pytest.raises(DegenerateCovarianceError):
        states.GaussianState(np.zeros(2), np.eye(2) / 4)  # violates uncertainty
    with pytest.raises(InvalidArgumentError):
        states.GaussianState(np.zeros(3), np.eye(2) / 2)


def test_coherent_state_matrix():
    alpha = 0.8 - 0.3j
    st = states.coherent_state_matrix(alpha, 20)
    assert np.trace(st.matrix) == pytest.approx(1.0, abs=1e-12)
    n_op = np.diag(np.arange(21)).astype(complex)
    mean_n = np.real(np.trace(st.matrix @ n_op))
    assert mean_n == pytest.approx(abs(alpha) ** 2, abs=1e-8)


def test_from_ket_normalizes():
    ket = np.array([3.0, 4.0])
    st = states.FockState.from_ket(ket)
    assert np.trace(st.matrix) == pytest.approx(1.0, abs=1e-15)
    assert st.matrix[1, 1] == pytest.approx(0.64, abs=1e-15)


def test_from_mixture():
    st = states.FockState.from_mixture(
        [0.25, 0.75], [states.fock_state(0, cutoff=2), states.fock_state(2)]
    )
    assert st.matrix[0, 0] == pytest.approx(0.25)
    assert st.matrix[2, 2] == pytest.approx(0.75)
    with pytest.raises(InvalidArgumentError):
        states.FockState.from_mixture([-0.1, 1.1], [states.fock_state(0), states.fock_state(1)])


def test_spec_labels_round_trip():
    cases = [
        (states.Fock(2), "fock(n=2)"),
        (states.Fock(np.int64(4)), "fock(n=4)"),
        (states.Noon(3), "noon(N=3,phi=3.141592653589793)"),
        (states.Noon(1, 0), "noon(N=1,phi=0.0)"),
        (states.Tmsv(0.5), "tmsv(r=0.5)"),
        (states.Tmsv(1), "tmsv(r=1.0)"),
        (states.Spssv(0.25, 0), "spssv(r=0.25,parity=0)"),
        (states.MixedFock01(0.3), "mixed01(lam=0.3)"),
        (states.MixedFock01(1), "mixed01(lam=1.0)"),
        (states.GaussianCustom.from_arrays(np.zeros(4), np.eye(4) / 2), "gaussian(k=2)"),
        (states.FockCustom.from_matrix(np.diag([0.5, 0.5])), "fock_custom(k=1,side=2)"),
    ]
    for spec, label in cases:
        assert states.spec_label(spec) == label
    assert states.spec_modes(states.Noon(3)) == 2
    assert states.spec_modes(states.Fock(1)) == 1
    assert states.spec_modes(states.GaussianCustom.from_arrays(np.zeros(4), np.eye(4) / 2)) == 2
    custom = states.FockCustom.from_matrix(np.diag([0.5, 0.2, 0.2, 0.1]), modes=2)
    assert states.spec_modes(custom) == 2


# ---------------------------------------------------------------------------
# the family table

# one spec per family, with a cutoff that its synthesis path accepts
FAMILY_SPECS = {
    "fock": (states.Fock(2), 3),
    "noon": (states.Noon(2, 0.5), 2),
    "tmsv": (states.Tmsv(0.1), 3),
    "spssv": (states.Spssv(0.05, 0), 4),
    "mixed01": (states.MixedFock01(0.3), 2),
}


def test_state_choices_follow_family_table():
    assert cli.STATE_CHOICES == ("vacuum", *states.FAMILIES)
    assert set(FAMILY_SPECS) == set(states.FAMILIES)


@pytest.mark.parametrize("name", list(FAMILY_SPECS))
def test_family_table_agrees_with_fields_and_states(name):
    spec, cutoff = FAMILY_SPECS[name]
    family = states.FAMILIES[name]
    assert type(spec) is family.spec
    label = states.spec_label(spec)
    assert label.startswith(f"{name}(")
    analytic = wigner.wigner_analytic(spec)
    synth, used = moments.field_for(spec, cutoff)
    built = states.state_from_spec(spec, cutoff)
    assert analytic.label == label
    assert synth.label == label
    modes = states.spec_modes(spec)
    assert modes == family.modes
    assert analytic.modes == modes
    assert synth.modes == modes
    assert built.modes == modes
    # the cutoff selected the synthesis field of the built state
    assert used == built.cutoff == cutoff
    assert synth.polynomial_degree == 2 * cutoff  # per mode
    assert moments.field_for(spec, None)[1] is None


@pytest.mark.parametrize("bad", [object(), None, "fock", 3, states.fock_state(1)])
def test_non_spec_rejected_by_every_dispatcher(bad):
    calls = [
        states.spec_label,
        states.spec_modes,
        states.state_from_spec,
        lambda s: states.state_from_spec(s, 2),
        wigner.wigner_analytic,
        lambda s: moments.field_for(s, None),
        lambda s: moments.field_for(s, 2),
    ]
    for call in calls:
        with pytest.raises(InvalidArgumentError):
            call(bad)


def test_state_from_spec_dispatch():
    assert isinstance(states.state_from_spec(states.Fock(1)), states.FockState)
    assert isinstance(
        states.state_from_spec(states.GaussianCustom.from_arrays(np.zeros(2), np.eye(2) / 2)),
        states.GaussianState,
    )


def test_annihilation_matrix():
    a = states.annihilation_matrix(4)
    expect = np.zeros((4, 4))
    for n in range(1, 4):
        expect[n - 1, n] = math.sqrt(n)
    assert np.allclose(a, expect)

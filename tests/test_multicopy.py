import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from kernel_reference import kernel_reference

from wignermoments import moments, multicopy, oracle, states, wigner
from wignermoments.errors import (
    InvalidArgumentError,
    SizeLimitError,
    TruncationWarning,
    UnsupportedOperationError,
)
from wignermoments.quadrature import laggauss_cached

PI = math.pi


def total_photon_mask(cutoff, max_total):
    d = cutoff + 1
    n1, n2 = np.divmod(np.arange(d * d), d)
    return (n1 + n2) <= max_total


# ---------------------------------------------------------------------------
# operator container


def test_truncated_operator_validation_and_props():
    op = multicopy.swap_operator(3)
    assert op.side == 16
    assert op.dim == 4
    with pytest.raises(InvalidArgumentError):
        multicopy.TruncatedOperator.dense(2, 3, np.eye(4))
    # realignment layouts whose sizes disagree or whose indices leave the
    # 16 level pairs of register 1 and the 16 of register 2
    zeros = np.zeros(4, dtype=int)
    for rows, starts, cols in [
        ([0, 16], [0, 2], zeros),
        ([0, 1], [0], zeros),
        ([0, 1], [], zeros),
        ([0, 1], [0, 2], zeros[:3]),
        ([0, 1], [0, 4], zeros),
        ([0, 1], [0, 0], zeros),
        ([0, 1], [1, 2], zeros),
        ([0, 1], [0, 2], zeros - 1),
        ([0, 1], [0, 2], zeros + 16),
        ([], [], zeros),
    ]:
        rows, starts = np.array(rows, dtype=int), np.array(starts, dtype=int)
        with pytest.raises(InvalidArgumentError):
            multicopy.TruncatedOperator(2, 3, rows, starts, cols, np.ones(4))
    empty = np.zeros(0, dtype=int)
    nothing = multicopy.TruncatedOperator(2, 3, empty, empty, empty, np.zeros(0))
    assert not nothing.matrix.any()


def test_safe_slice_keeps_interior_levels():
    op = multicopy.swap_operator(4)
    sub = op.safe_slice()
    assert sub.shape == (9, 9)  # both registers restricted to 0..2


def test_dump_round_trips_nonzeros(tmp_path):
    op = multicopy.swap_operator(1)
    path = tmp_path / "swap.csv"
    op.dump(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# side=4"
    assert lines[1] == "# cutoff=1"
    assert lines[2] == "row,col,re,im"
    entries = [line.split(",") for line in lines[3:]]
    rebuilt = np.zeros((4, 4), dtype=complex)
    for r, c, re, im in entries:
        rebuilt[int(r), int(c)] = float(re) + 1j * float(im)
    assert np.array_equal(rebuilt, op.matrix)


# ---------------------------------------------------------------------------
# SWAP in three guises


def test_swap_permutation_action():
    cutoff = 3
    d = cutoff + 1
    op = multicopy.swap_operator(cutoff)
    rng = np.random.default_rng(0)
    u = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    assert np.allclose(op.matrix @ np.kron(u, v), np.kron(v, u), atol=1e-15)
    # involution and trace
    assert np.array_equal(op.matrix @ op.matrix, np.eye(d * d))
    assert np.trace(op.matrix) == d


def test_swap_expectation_is_state_overlap():
    # Tr[SWAP (rho x sigma)] = Tr[rho sigma]
    cutoff = 5
    rho = states.fock_state(1, cutoff=cutoff).matrix
    sigma = states.mixed_fock01(0.3, cutoff=cutoff).matrix
    op = multicopy.swap_operator(cutoff)
    got = multicopy.multicopy_expectation(op, [rho, sigma])
    assert got == pytest.approx(np.trace(rho @ sigma).real, abs=1e-14)
    assert abs(got.imag) < 1e-14


def test_swap_exponential_matches_permutation_inside_cutoff():
    cutoff = 8
    perm = multicopy.swap_operator(cutoff).matrix
    expo = multicopy.swap_operator_exponential(cutoff).matrix
    # unitary to machine precision even truncated
    assert np.max(np.abs(expo @ expo.conj().T - np.eye(expo.shape[0]))) < 1e-9
    # exact agreement on total photon number <= cutoff
    mask = total_photon_mask(cutoff, cutoff)
    sub = np.ix_(mask, mask)
    assert np.max(np.abs(expo[sub] - perm[sub])) < 1e-8
    # and visibly wrong outside it, which is why the mask matters
    assert np.max(np.abs(expo - perm)) > 0.1


def test_swap_quadrature_form_matches_one_level_lower():
    cutoff = 8
    perm = multicopy.swap_operator(cutoff).matrix
    quad = multicopy.swap_quadrature_form(cutoff).matrix
    assert np.max(np.abs(quad @ quad.conj().T - np.eye(quad.shape[0]))) < 1e-9
    mask = total_photon_mask(cutoff, cutoff - 1)
    sub = np.ix_(mask, mask)
    assert np.max(np.abs(quad[sub] - perm[sub])) < 1e-6
    # the quadrature squares couple one extra level, so the N = cutoff
    # sector is already distorted
    mask_full = total_photon_mask(cutoff, cutoff)
    sub_full = np.ix_(mask_full, mask_full)
    assert np.max(np.abs(quad[sub_full] - perm[sub_full])) > 1e-3


def test_swap_constructors_reject_cutoff_zero():
    for builder in (
        multicopy.swap_operator,
        multicopy.swap_operator_exponential,
        multicopy.swap_quadrature_form,
    ):
        with pytest.raises(InvalidArgumentError):
            builder(0)


# ---------------------------------------------------------------------------
# displaced parity


def test_displaced_parity_at_origin_is_parity():
    op = multicopy.displaced_parity(0.0, cutoff=6)
    assert np.allclose(op.matrix, np.diag((-1.0) ** np.arange(7)), atol=1e-14)


def test_displaced_parity_is_hermitian_involution():
    op = multicopy.displaced_parity(0.4 + 0.3j, cutoff=10)
    mat = op.matrix
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-13
    assert np.max(np.abs(mat @ mat - np.eye(11))) < 1e-12


def test_displaced_parity_reads_wigner_function():
    # Tr[rho Pi(alpha)] / pi = W(sqrt2 Re alpha, sqrt2 Im alpha)
    cutoff = 24
    rho = states.fock_state(1, cutoff=cutoff).matrix
    field = wigner.wigner_analytic(states.Fock(1))
    for alpha in (0.3 + 0.2j, -0.5j, 0.7):
        op = multicopy.displaced_parity(alpha, cutoff)
        val = np.trace(rho @ op.matrix) / PI
        alpha = complex(alpha)
        point = [math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag]
        assert val.real == pytest.approx(field(point), abs=1e-10)
        assert abs(val.imag) < 1e-12


def test_displaced_parity_warns_when_pushed_past_truncation():
    with pytest.warns(TruncationWarning):
        multicopy.displaced_parity(3.0, cutoff=8)


# ---------------------------------------------------------------------------
# the multi-copy observables


def test_o2_is_swap_over_2pi():
    cutoff = 6
    o2 = multicopy.multicopy_observable(2, cutoff)
    swap = multicopy.swap_operator(cutoff)
    assert np.max(np.abs(o2.matrix - swap.matrix / (2.0 * PI))) < 1e-12


def test_multicopy_vacuum_moments():
    # Tr[vac^(x)m O_m] = w_m(vacuum) = 1/(m pi^{m-1})
    cutoff = 5
    vac = states.fock_state(0, cutoff=cutoff)
    for m in (2, 3):
        op = multicopy.multicopy_observable(m, cutoff)
        got = multicopy.multicopy_expectation(op, [vac] * m)
        expect = 1.0 / (m * PI ** (m - 1))
        assert got.real == pytest.approx(expect, rel=1e-12)
        assert abs(got.imag) < 1e-13


@pytest.mark.parametrize(
    "spec",
    [states.Fock(0), states.Fock(1), states.Fock(4), states.MixedFock01(0.3)],
)
def test_o3_reproduces_quadrature_w3(spec):
    cutoff = 8
    state = states.state_from_spec(spec, cutoff=cutoff)
    field = wigner.wigner_analytic(spec)
    op = multicopy.multicopy_observable(3, cutoff)
    got = multicopy.multicopy_expectation(op, [state] * 3)
    expect = moments.moment(field, 3)
    assert got.real == pytest.approx(expect, abs=1e-10)
    assert abs(got.imag) < 1e-12


def test_o3_on_complex_superposition():
    # (|0> + i|2>)/sqrt(2) exercises the imaginary parts of the kernels
    cutoff = 8
    ket = np.zeros(cutoff + 1, dtype=complex)
    ket[0] = 1.0 / math.sqrt(2.0)
    ket[2] = 1j / math.sqrt(2.0)
    state = states.FockState.from_ket(ket)
    field = wigner.wigner_fock_synthesis(state)
    op = multicopy.multicopy_observable(3, cutoff)
    got = multicopy.multicopy_expectation(op, [state] * 3)
    assert got.real == pytest.approx(moments.moment(field, 3), abs=1e-10)
    assert abs(got.imag) < 1e-12


def test_multicopy_observable_guards():
    with pytest.raises(UnsupportedOperationError):
        multicopy.multicopy_observable(1, 4)
    with pytest.raises(UnsupportedOperationError):
        multicopy.multicopy_observable(4, 4)
    with pytest.raises(InvalidArgumentError):
        multicopy.multicopy_observable(2, 0)
    with pytest.raises(SizeLimitError):
        multicopy.multicopy_observable(3, 20)  # 9261 > 4096


def gauss_hermite_observable(m, cutoff, order=40):
    """Reference O_m from a 2-D Gauss-Hermite rule over the alpha plane.

    alpha = (t_re + i t_im)/sqrt(2m) folds the e^{-2m|alpha|^2} of the
    parity kernels into the Hermite weight; exact once order > m*cutoff + 1.
    No selection rule is used: every entry is integrated as it stands.
    """
    d = cutoff + 1
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    xg, pg = np.meshgrid(nodes / math.sqrt(m), nodes / math.sqrt(m), indexing="ij")
    kernels = np.conj(kernel_reference(xg.ravel(), pg.ravel(), d))
    # the m kernels' envelopes e^{-u}/pi multiply to e^{-t_re^2 - t_im^2}/pi^m,
    # the Hermite weight over pi^m
    scaled = weights * np.exp(nodes * nodes)
    w2d = np.outer(scaled, scaled).ravel()
    total = np.zeros((d**m, d**m), dtype=complex)
    for w, k in zip(w2d, kernels):
        power = k
        for _ in range(m - 1):
            power = np.kron(power, k)
        total += w * power
    total *= 2.0 / (2.0 * m)
    return 0.5 * (total + total.conj().T)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 4, 5])
def test_radial_rule_matches_gauss_hermite_reference(m, cutoff):
    got = multicopy.multicopy_observable(m, cutoff).matrix
    want = gauss_hermite_observable(m, cutoff)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("m, cutoff", [(2, 7), (3, 4)])
def test_observable_obeys_photon_number_selection_rule(m, cutoff):
    mat = multicopy.multicopy_observable(m, cutoff).matrix
    d = cutoff + 1
    digits = np.stack(np.unravel_index(np.arange(d**m), (d,) * m))
    totals = digits.sum(axis=0)
    outside = totals[:, None] != totals[None, :]
    assert np.all(mat[outside] == 0.0)
    assert np.count_nonzero(mat[~outside]) > 0
    assert np.all(mat.imag == 0.0)
    assert np.array_equal(mat, mat.T)


def check_o3_exact_moments(cutoff):
    op = multicopy.multicopy_observable(3, cutoff)
    specs = [states.Fock(n) for n in range(cutoff + 1)] + [states.MixedFock01(0.3)]
    for spec in specs:
        state = states.state_from_spec(spec, cutoff=cutoff)
        got = multicopy.multicopy_expectation(op, [state] * 3)
        want = oracle.radial_closed_form_moment(spec, 3)
        assert got.real == pytest.approx(want, rel=0, abs=1e-12), spec
        assert got.imag == 0.0
    return op


def test_o3_at_cutoff_12_matches_exact_moments():
    assert check_o3_exact_moments(12).values.size == 204_763


def test_o3_at_the_largest_cutoff_matches_exact_moments():
    # cutoff 15 is the largest under MAX_SIDE (16^3 = 4096)
    assert multicopy.MAX_SIDE == 16**3
    assert check_o3_exact_moments(15).values.size == 577_744


def test_multicopy_expectation_guards():
    op = multicopy.multicopy_observable(2, 3)
    vac = states.fock_state(0, cutoff=3)
    with pytest.raises(InvalidArgumentError):
        multicopy.multicopy_expectation(op, [vac])
    with pytest.raises(InvalidArgumentError):
        multicopy.multicopy_expectation(op, [np.eye(3) / 3.0, vac])
    # a two-mode state at cutoff 1 has the dimension 4 of one register here
    noon = states.state_from_spec(states.Noon(1), 1)
    with pytest.raises(InvalidArgumentError):
        multicopy.multicopy_expectation(op, [noon, noon])


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_expectation_pairs_each_register_with_its_own_state(m, cutoff):
    # Tr[(rho_1 x ... x rho_m) O] with distinct complex states. O_m and the
    # SWAP forms are symmetric, so a transposed rho[c, r] gather or swapped
    # registers only show on operators without that symmetry: displaced
    # parity, a random dense operator and random values on O_m's support.
    rng = np.random.default_rng(10 * m + cutoff)
    d = cutoff + 1
    rhos = [random_density(rng, d) for _ in range(m)]
    o_m = multicopy.multicopy_observable(m, cutoff)
    noise = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ops = [
        o_m,
        multicopy.TruncatedOperator.dense(m, cutoff, noise(d**m, d**m)),
        dataclasses.replace(o_m, values=noise(o_m.values.size)),
    ]
    if m == 2:
        ops += [
            multicopy.swap_operator(cutoff),
            multicopy.swap_operator_exponential(cutoff),
            multicopy.swap_quadrature_form(cutoff),
        ]
    for op in ops:
        want = np.trace(functools.reduce(np.kron, rhos) @ op.matrix)
        got = multicopy.multicopy_expectation(op, rhos)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    parity = multicopy.displaced_parity(0.3 - 0.4j, cutoff)
    want = np.trace(rhos[0] @ parity.matrix)
    assert abs(multicopy.multicopy_expectation(parity, rhos[:1]) - want) <= 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dense_realignment_round_trips(m):
    cutoff = 3
    side = (cutoff + 1) ** m
    rng = np.random.default_rng(m)
    mat = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    assert np.array_equal(multicopy.TruncatedOperator.dense(m, cutoff, mat).matrix, mat)


@pytest.mark.parametrize("m", [2, 3])
def test_real_and_complex_contractions_agree(m, monkeypatch):
    cutoff = 5
    d = cutoff + 1
    rng = np.random.default_rng(m)
    noise = rng.normal(size=(d**m, d**m)) + 1j * rng.normal(size=(d**m, d**m))
    ops = [
        multicopy.multicopy_observable(m, cutoff),
        multicopy.TruncatedOperator.dense(m, cutoff, noise),
    ]
    dtypes = []
    contract = multicopy._contract
    spy = lambda op, vectors: dtypes.append({v.dtype for v in vectors}) or contract(op, vectors)
    monkeypatch.setattr(multicopy, "_contract", spy)
    real = [random_density(rng, d).real for _ in range(m)]
    rhos = [random_density(rng, d) for _ in range(m)]
    for op in ops:
        # real states: the real path against complex arithmetic on the same entries
        got = multicopy.multicopy_expectation(op, real)
        want = contract(op, [rho.astype(complex).ravel() for rho in real])
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
        # complex states: the complex path against the real path on the real
        # and imaginary parts, expanded over the registers
        got = multicopy.multicopy_expectation(op, rhos)
        want = sum(
            1j ** sum(parts) * multicopy.multicopy_expectation(
                op, [rho.imag if part else rho.real for rho, part in zip(rhos, parts)]
            )
            for parts in itertools.product((0, 1), repeat=m)
        )
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
    # per operator: one real contraction, one complex, 2^m real
    per_op = [{np.dtype(float)}, {np.dtype(complex)}] + [{np.dtype(float)}] * 2**m
    assert dtypes == per_op * len(ops)


def dense_reference_observable(m, cutoff):
    """O_m as one dense GEMM over the radial rule, masked by total photon number.

    The weighted sum of m-fold outer powers of the kernels is one GEMM in the
    per-copy (row, col) layout; a transpose regroups (r1,c1,...,rm,cm) into
    (r1..rm, c1..cm), and a side^2 mask zeroes the entries outside the
    selection rule. This is the build the sector storage replaced.
    """
    d = cutoff + 1
    side = d**m
    order = m * cutoff // 2 + 1
    nodes, scaled_weights = laggauss_cached(order)
    # the m kernels' envelopes e^{-s/m}/pi multiply to e^{-s}/pi^m
    weights = scaled_weights * PI**m
    kernels = kernel_reference(np.sqrt(nodes / m), np.zeros(order), d).real
    flat = kernels.reshape(order, d * d)
    lead = flat
    for _ in range(m - 2):
        lead = (lead[:, :, None] * flat[:, None, :]).reshape(order, -1)
    gram = (weights[:, None] * lead).T @ flat
    axes = list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2))
    total = np.transpose(gram.reshape((d, d) * m), axes).reshape(side, side)
    levels = np.arange(d)
    totals = levels
    for _ in range(m - 1):
        totals = (totals[:, None] + levels[None, :]).ravel()
    total[totals[:, None] != totals[None, :]] = 0.0
    total *= 1.0 / (m * PI ** (m - 1))
    return 0.5 * (total + total.T)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("cutoff", range(1, 13))
def test_sector_build_matches_dense_reference(m, cutoff, tmp_path):
    op = multicopy.multicopy_observable(m, cutoff)
    got = op.matrix
    want = dense_reference_observable(m, cutoff)
    totals = np.indices((cutoff + 1,) * m).reshape(m, -1).sum(axis=0)
    assert got.dtype == np.float64
    assert np.array_equal(got, got.T)
    assert np.all(got[totals[:, None] != totals[None, :]] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-15
    # the dump lists the nonzeros of .matrix in row-major (row, col) order;
    # it and the reference may differ only on roundoff of exactly-zero
    # entries (O_2 = SWAP/(2 pi) is zero off the permutation)
    path = tmp_path / "op.csv"
    op.dump(path)
    with open(path) as fh:
        header = [next(fh).rstrip("\n") for _ in range(3)]
    assert header == [f"# side={got.shape[0]}", f"# cutoff={cutoff}", "row,col,re,im"]
    table = np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
    rows, cols = table[:, 0].astype(int), table[:, 1].astype(int)
    assert np.array_equal(np.stack([rows, cols]), np.stack(np.nonzero(got)))
    assert np.array_equal(table[:, 2], got[rows, cols]) and np.all(table[:, 3] == 0.0)
    above = lambda mat: np.stack(np.nonzero(np.abs(mat) > 1e-15))
    assert np.array_equal(above(got), above(want))


# ---------------------------------------------------------------------------
# forward-backward swap chains


def test_forward_backward_pure_state_unit_purity():
    state = states.state_from_spec(states.Noon(2, 0.0))
    assert multicopy.forward_backward_protocol(state, m=3) == pytest.approx(
        1.0, abs=1e-12
    )
    assert multicopy.forward_backward_protocol(state, m=2) == pytest.approx(
        1.0, abs=1e-12
    )


def test_forward_backward_mixed_product_state():
    # mixed 0/1 state in register A, vacuum in register B
    cutoff = 3
    mixed = states.mixed_fock01(0.3, cutoff=cutoff).matrix
    vac = states.fock_state(0, cutoff=cutoff).matrix
    state = states.FockState(np.kron(mixed, vac), modes=2)
    got3 = multicopy.forward_backward_protocol(state, m=3)
    assert got3 == pytest.approx(0.3**3 + 0.7**3, abs=1e-13)
    got2 = multicopy.forward_backward_protocol(state, m=2)
    assert got2 == pytest.approx(0.3**2 + 0.7**2, abs=1e-13)


def test_forward_backward_guards():
    state = states.state_from_spec(states.Noon(1, 0.0))
    with pytest.raises(InvalidArgumentError):
        multicopy.forward_backward_protocol(state, m=1)
    with pytest.raises(InvalidArgumentError):
        multicopy.forward_backward_protocol(states.fock_state(0, cutoff=2), m=3)
    big = states.state_from_spec(states.Noon(4, 0.0))  # dm = 5, side 5^6
    with pytest.raises(SizeLimitError):
        multicopy.forward_backward_protocol(big, m=3)


def test_adjacent_swap_chain_composes_to_cycle():
    # the protocol's internal consistency check, exercised directly
    swap_register, cyclic = multicopy._register_permutations(2, 3)
    side = 2**6
    composed = np.arange(side)
    for reg in (0, 1):
        for i in range(2):
            composed = swap_register(reg, i, i + 1)[composed]
    assert np.array_equal(composed, cyclic())
    # a cycle of length 3 is not an involution, so one chain is not enough
    assert not np.array_equal(cyclic()[cyclic()], np.arange(side))

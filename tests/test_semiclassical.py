import numpy as np
import pytest

from atomarray import lli, semiclassical as sc
from atomarray.drives import PlaneWave
from atomarray.geometry import LAMBDA, Geometry, build_square_lattice
from atomarray.kernel import GAMMA, coupling_matrix
from atomarray.lli import TransitionSpec

EY = TransitionSpec(levels=2, orientation=(0.0, 1.0, 0.0))


def single_atom():
    return Geometry(np.zeros((1, 3)))


def pair(d):
    return Geometry([[0, 0, 0], [0, 0, d]])


def test_rhs_single_atom_matches_hand_obe():
    system = lli.assemble(single_atom(), EY, PlaneWave(amplitude=0.4))
    rng = np.random.default_rng(0)
    p = 0.1 + 0.05j
    n = 0.2
    st = sc.SemiclassicalState(np.array([[p]]), np.array([[[n]]], dtype=complex))
    out = sc.obe_rhs(st, system)
    # two-level OBEs: dp = (i Delta - gamma) p + i R (1 - 2n),
    #                 dn = -2 gamma n - 2 Im(R conj(p))
    R = 0.4
    assert np.isclose(out.coherences[0, 0],
                      -GAMMA * p + 1j * R * (1 - 2 * n), rtol=1e-13)
    assert np.isclose(out.excited[0, 0, 0],
                      -2 * GAMMA * n - 2 * np.imag(R * np.conj(p)), rtol=1e-13)


def test_rhs_lli_limit_matches_coupled_dipoles():
    geo = build_square_lattice(2, 2, 0.4 * LAMBDA)
    drive = PlaneWave(amplitude=1e-6)
    system = lli.assemble(geo, EY, drive)
    rng = np.random.default_rng(1)
    coh = 1e-6 * (rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1)))
    st = sc.SemiclassicalState(coh, np.zeros((4, 1, 1), dtype=complex))
    out = sc.obe_rhs(st, system)
    want = 1j * system.H @ coh[:, 0] + system.f
    assert np.max(np.abs(out.coherences[:, 0] - want)) < 1e-12


@pytest.mark.parametrize("tr", [
    EY, TransitionSpec(levels=4, zeeman=(0.3, 0.0, -0.2), detuning=0.4)],
    ids=["two-level", "J01-zeeman"])
def test_obe_rhs_equals_the_separate_coupling_formula(tr):
    """obe_rhs on the system of lli.assemble against the right-hand side
    written out with couplings and a drive of its own: Rbar = R + (C -
    i gamma 1) rho_ge, C from kernel.coupling_matrix; H is left as it is."""
    geo = build_square_lattice(3, 3, 0.4 * LAMBDA)
    drive = PlaneWave(amplitude=0.7,
                      polarization=(0, 1 / np.sqrt(2), 1j / np.sqrt(2)))
    system = lli.assemble(geo, tr, drive)
    H = system.H.copy()
    n, m = geo.natoms, tr.components
    rng = np.random.default_rng(3)
    coh = 0.2 * (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
    exc = np.einsum("ja,jb->jab", coh.conj(), coh) + 0.1 * np.eye(m)
    C = coupling_matrix(geo, tr.basis)
    C[np.diag_indices(len(C))] -= 1j * GAMMA
    rbar = (tr.rabi(drive.field(geo.positions))
            + (C @ coh.ravel()).reshape(n, m))
    LT = tr.level_block.T
    rho_gg = 1.0 - np.einsum("jnn->j", exc)
    dcoh = (1j * coh @ LT - GAMMA * coh + 1j * rbar * rho_gg[:, None]
            - 1j * np.einsum("jt,jte->je", rbar, exc))
    dexc = (1j * (exc @ LT - LT @ exc) - 2 * GAMMA * exc
            + 1j * rbar[:, None, :] * np.conj(coh)[:, :, None]
            - 1j * np.conj(rbar[:, :, None] * np.conj(coh)[:, None, :]))
    out = sc.obe_rhs(sc.SemiclassicalState(coh, exc), system)
    for got, want in ((sc.effective_rabi(system, coh), rbar),
                      (out.coherences, dcoh), (out.excited, dexc)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(system.H, H)


def test_saturation_strong_drive():
    system = lli.assemble(single_atom(), EY, PlaneWave(amplitude=50.0))
    state, resid = sc.steady_state_obe(system, horizon=60.0)
    assert abs(state.populations()[0] - 0.5) < 1e-3


def test_single_atom_steady_state_exact():
    # N=1, Delta=0: rho_ee = |R|^2/(gamma^2 + 2|R|^2)
    R = 1 / np.sqrt(2)
    system = lli.assemble(single_atom(), EY, PlaneWave(amplitude=R))
    state, _ = sc.steady_state_obe(system)
    want = R**2 / (GAMMA**2 + 2 * R**2)
    assert abs(state.populations()[0] - want) < 1e-10


def test_obe_pair_matches_qme_at_low_intensity():
    from atomarray.quantum import (build_quantum_system, mean_lowering,
                                   steady_state_qme)
    d = 0.5 * LAMBDA
    I_ratio = 1e-4
    R = np.sqrt(I_ratio / 2)
    drive = PlaneWave(amplitude=R)
    tr = TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.0)
    geo = pair(d)
    system = lli.assemble(geo, tr, drive)
    state, _ = sc.steady_state_obe(system)
    qsys = build_quantum_system(geo, tr, drive)
    rho, _ = steady_state_qme(qsys)
    means = mean_lowering(rho, qsys)
    for j in range(2):
        a = state.coherences[j, 0]
        b = means[j]
        assert abs(a - b) / abs(b) < 0.01


def test_obe_steady_state_reaches_lli_at_weak_drive():
    # I/I_sat = 1e-6 with well-damped modes: nonlinear and linear steady
    # states agree to 0.1%
    geo = build_square_lattice(3, 3, 0.6 * LAMBDA)
    R = np.sqrt(1e-6 / 2)
    drive = PlaneWave(amplitude=R)
    system = lli.assemble(geo, EY, drive)
    state, _ = sc.steady_state_obe(system, horizon=120.0)
    lsys = lli.assemble(geo, EY, drive)
    b = lli.steady_state(lsys, 0.0)
    rel = np.max(np.abs(state.coherences[:, 0] - b)) / np.max(np.abs(b))
    assert rel < 1e-3


def test_population_bounds_and_hermiticity_along_trajectory():
    geo = pair(0.3 * LAMBDA)
    system = lli.assemble(geo, EY, PlaneWave(amplitude=2.0))
    t = np.linspace(0, 10, 21)
    traj = sc.integrate_obe(sc.SemiclassicalState.ground(2), system, t)
    for st in traj:
        pops = st.populations()
        assert np.all(pops > -1e-10) and np.all(pops < 1.0 + 1e-10)
        herm = np.max(np.abs(st.excited - np.conj(
            np.transpose(st.excited, (0, 2, 1)))))
        assert herm < 1e-10


def test_uniform_steady_state_independent_atom():
    sols = sc.uniform_steady_state(0.0, 1 / np.sqrt(2), 0.0, 0.0)
    assert len(sols) == 1
    s = sols[0]
    assert np.isclose(s.rho_ee, 0.25, rtol=1e-10)       # I = 2R^2 = I_sat
    assert s.stable


def test_uniform_steady_state_lli_limit():
    om, gt = -0.35, -0.48
    sols = sc.uniform_steady_state(0.4, 1e-5, om, gt)
    assert len(sols) == 1
    want = -1e-5 / (0.4 + om + 1j * (GAMMA + gt))
    assert abs(sols[0].rho_ge - want) / abs(want) < 1e-4
    assert sols[0].rho_ee < 1e-8


def test_uniform_effective_field_cooperative_suppression():
    # LLI limit: Rbar ~ R/(2C + 1)
    om, gt = 8.0, 3.0
    delta = 0.1
    C = sc.cooperativity(delta, om, gt)
    assert abs(C) > 1
    sols = sc.uniform_steady_state(delta, 1e-6, om, gt)
    got = sols[0].rabi_eff / 1e-6
    assert abs(got - 1.0 / (2 * C + 1)) < 1e-3 * abs(1.0 / (2 * C + 1))


def test_cooperativity_value():
    assert np.isclose(sc.cooperativity(0.0, 0.0, GAMMA), 0.5)


def test_cubic_roots_satisfy_effective_field_relation():
    om, gt = -30.0, 8.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        delta = rng.uniform(-40, 40)
        R = rng.uniform(0.1, 30)
        for s in sc.uniform_steady_state(delta, R, om, gt):
            resid = s.rabi_eff - (R + (om + 1j * gt) * s.rho_ge)
            assert abs(resid) < 1e-10 * max(1.0, abs(s.rabi_eff))


def test_bistability_present_at_small_spacing():
    assert sc.has_bistable_window(0.1 * LAMBDA)


def test_no_bistability_at_large_spacing():
    assert not sc.has_bistable_window(0.5 * LAMBDA)


def test_bistable_scan_table():
    scan = sc.bistability_scan(0.1 * LAMBDA, np.linspace(-40, 0, 21),
                               np.geomspace(1, 5e3, 21))
    assert scan.bistable
    twostable = [row for row in scan.table if row[3] >= 2]
    assert twostable
    # bistable points show distinct cooperative/single-atom branches
    d, I, nroots, ns = twostable[0]
    sols = sc.uniform_steady_state(d, np.sqrt(I / 2), scan.omega_t,
                                   scan.gamma_t)
    stable = [s for s in sols if s.stable]
    assert len(stable) >= 2
    assert stable[-1].rho_ee > 2 * stable[0].rho_ee


@pytest.mark.parametrize("offset, branches", [(0.0, 2), (1e-9, 3),
                                              (-1e-6, 1)])
def test_branch_count_at_the_fold(offset, branches):
    # the lower window edge is a double root: the fold branch must be kept
    # exactly there, split in two just inside and gone just outside
    om, gt = 5.9375, 1.0
    lo, _ = sc.bistable_intensity_window(0.0, om, gt)
    rabi = np.sqrt(lo * (1.0 + offset) / 2) * GAMMA
    assert len(sc.uniform_steady_state(0.0, rabi, om, gt)) == branches


def test_bistable_heuristic_large_cooperativity():
    # where bistability exists the cooperativity magnitude is large (|C|>~4)
    a = 0.1 * LAMBDA
    s = sc.bistability_scan(a, np.linspace(-40, 0, 41), [1.0])
    om, gt = s.omega_t, s.gamma_t
    cs = [abs(sc.cooperativity(d, om, gt))
          for d in np.linspace(-40, 0, 401) if sc.bistable_at(d, om, gt)]
    assert cs and max(cs) > 4.0


def test_hysteresis_up_down_sweep():
    # inside the fold the attractor depends on the sweep direction
    a = 0.1 * LAMBDA
    om, gt = None, None
    from atomarray.infinite import lattice_sums
    om, gt = lattice_sums(a).uniform_mode(1)
    delta = None
    for d in np.linspace(-4 * abs(om), 0, 301):
        w = sc.bistable_intensity_window(d, om, gt)
        if w is not None:
            delta, window = d, w
            break
    assert delta is not None
    I_mid = np.sqrt(window[0] * window[1])
    R = np.sqrt(I_mid / 2)
    t = np.linspace(0, 400, 9)
    p_up, n_up = sc.uniform_evolve(delta, R, om, gt, t, p0=0.0, n0=0.0)
    sols = sc.uniform_steady_state(delta, R, om, gt)
    hi = max(s.rho_ee for s in sols if s.stable)
    lo = min(s.rho_ee for s in sols if s.stable)
    p_dn, n_dn = sc.uniform_evolve(delta, R, om, gt, t,
                                   p0=sols[-1].rho_ge, n0=hi)
    assert abs(n_dn[-1].real - hi) < 1e-6 or abs(n_dn[-1].real - lo) < 1e-6
    assert abs(n_up[-1].real - n_dn[-1].real) > 1e-4 or np.isclose(hi, lo)


def test_power_broadened_linewidth_limits():
    assert np.isclose(sc.power_broadened_linewidth(0.0, -0.3, -0.5), GAMMA)
    for I in (0.5, 2.0, 10.0):
        assert np.isclose(sc.power_broadened_linewidth(I, 0.0, -0.5),
                          GAMMA * np.sqrt(1 + I), rtol=1e-14)
    with pytest.raises(ValueError):
        sc.power_broadened_linewidth(-1.0, 0.0, -0.5)


def test_power_broadening_subradiant_ordering():
    # broadening is enhanced for gamma~ < 0 but the collective spectrum
    # (gamma + gamma~ times the broadening factor) stays narrower than the
    # power-broadened single-atom line
    gt = -0.1
    for I in (0.5, 1.0, 2.0):
        sols = sc.uniform_steady_state(0.0, np.sqrt(I / 2), 0.0, gt)
        Z = sols[0].inversion
        pb_sub = sc.power_broadened_linewidth(I, gt, Z)
        pb_ind = sc.power_broadened_linewidth(I, 0.0, Z)
        assert pb_sub > pb_ind
        assert (GAMMA + gt) / GAMMA * pb_sub < pb_ind


def test_j01_single_atom_obe_matches_qme():
    from atomarray.quantum import build_quantum_system, steady_state_qme
    tr = TransitionSpec(levels=4, zeeman=(0.4, 0.0, 0.4), detuning=0.2)
    drive = PlaneWave(amplitude=0.5, polarization=(0, 1, 0))
    geo = single_atom()
    system = lli.assemble(geo, tr, drive)
    state, _ = sc.steady_state_obe(system)
    qs = build_quantum_system(geo, tr, drive)
    rho, _ = steady_state_qme(qs)
    # total excited population must agree (basis-independent)
    pop_q = float(np.real(np.trace(qs.population_operator() @ rho)))
    assert abs(state.populations()[0] - pop_q) < 1e-7
    # both models hold the Cartesian components <sigma^-_x,y,z>
    from atomarray.quantum import mean_lowering
    assert np.allclose(mean_lowering(rho, qs), state.coherences[0],
                       atol=1e-7)


def test_j01_pair_obe_lli_limit_against_coupled_dipoles():
    from atomarray import lli as lli_mod
    tr = TransitionSpec(levels=4, zeeman=(0.2, 0.0, 0.2))
    geo = pair(0.5 * LAMBDA)
    drive = PlaneWave(amplitude=1e-5, polarization=(0, 1, 0))
    system = lli.assemble(geo, tr, drive)
    state, _ = sc.steady_state_obe(system, horizon=300.0)
    lsys = lli_mod.assemble(geo, tr, drive)
    b = lli_mod.steady_state(lsys, 0.0)
    # the Cartesian coherences match the linear solution
    for j in range(2):
        assert np.max(np.abs(state.coherences[j] - b[3 * j:3 * j + 3])) < 1e-9


def test_steady_state_reports_nonconvergence_with_tail():
    # a bistable system driven at the fold can fail the residual target on
    # the marching horizon; the error carries the trajectory tail
    from atomarray.errors import NonConvergenceError
    geo = pair(0.12 * LAMBDA)
    system = lli.assemble(geo, EY, PlaneWave(amplitude=8.0))
    try:
        state, resid = sc.steady_state_obe(system, horizon=2.0,
                                            residual_tol=1e-14, refine=False)
    except NonConvergenceError as err:
        assert err.tail is not None
        assert err.residual > 0
    else:
        assert resid <= 1e-14

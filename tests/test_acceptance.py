"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test asserts the gated property at its stated tolerance and prints a
single line with the measured values, so a verbose run doubles as a report.
The heavy shared piece — a ten-cap sweep of the r=36 reference setup across
all three architectures — is computed once in a module fixture and reused
by the ordering, saturation, feasibility and determinism checks, by a
regression gate on the capped diagonal cells, and by a column-by-column
comparison with the committed golden cells of ``tests/golden``.
"""
import json
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from conftest import (
    SETUP_36,
    batch_haar,
    batch_trace_objective,
    golden_moves,
    golden_row,
    haar_unitary,
    rand_complex,
    reference_sweep,
    solve_based_qcqp_oracle,
)

from bdris.experiments import (
    SCENARIO_EVE,
    SCENARIO_NO_EVE,
    ExperimentSpec,
    run_experiment,
)
from bdris.kernels import (
    expm_skew,
    hermitian_eig,
    nearest_symmetric_unitary,
    takagi,
    unitary_procrustes,
)
from bdris.model import (
    ARCH_DIAGONAL,
    ARCH_NONRECIPROCAL,
    ARCH_RECIPROCAL,
    QuadraticForms,
    SystemConfig,
    build_forms,
    crb_trace,
    fim_matrix,
    generate_channels,
    quad_objective,
    simulate_mle_mse,
)
from bdris.pdd import PddState, qcqp_spectral, update_psi
from bdris.spectral import solve_nonreciprocal, solve_reciprocal_ao, von_neumann_bound

# Reference setups: SETUP_36 (conftest) and 64 elements / 15 streams, both
# with twice as many receive antennas as streams and the default power
# budget and noise floor.
SETUP_64 = dict(k=15, r=64, n_b=30, n_e=30, seed=7)

ARCHS = (ARCH_NONRECIPROCAL, ARCH_RECIPROCAL, ARCH_DIAGONAL)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sweep36(tmp_path_factory):
    """One full r=36 sweep (3 architectures, no-eve + 10-cap grid)."""
    tmp = tmp_path_factory.mktemp("accept36")
    return {"tmp": tmp, **reference_sweep(tmp / "run1")}


def _row_map(rows):
    return {(r["scenario"], r["architecture"], r["epsilon"]): r for r in rows}


def test_criterion_01_closed_form_attains_spectral_bound():
    """200 seeded instances, r in 2..6: the closed-form response meets the
    sorted-spectrum trace bound to 1e-9 and beats 1e5 random unitaries."""
    t0 = perf_counter()
    rng = np.random.default_rng(2025)
    worst_rel = 0.0
    worst_margin = np.inf
    count = 0
    for r in range(2, 7):
        batch = batch_haar(rng, 100_000, r)
        for _ in range(40):
            k = max(1, r // 2)
            h = rand_complex(rng, r, k)
            hb = rand_complex(rng, 2 * k, r)
            forms = QuadraticForms(e_b=hb.conj().T @ hb, h=h)
            ris, rep = solve_nonreciprocal(forms)
            bound = von_neumann_bound(forms, "bob")
            worst_rel = max(worst_rel, abs(rep.objective - bound) / bound)
            best = float(batch_trace_objective(batch, forms.e_b, forms.m).max())
            worst_margin = min(worst_margin, rep.objective / best)
            count += 1
    wall = perf_counter() - t0
    assert count == 200
    assert worst_rel <= 1e-9
    assert worst_margin >= 1.0 - 1e-9
    assert wall < 30.0
    print(f"[criterion 1] PASS: 200 instances, max bound deviation "
          f"{worst_rel:.2e}, min objective/random-best {worst_margin:.9f}, "
          f"{wall:.1f}s")


def test_criterion_02_qcqp_matches_numerical_oracle():
    """100 seeded shrink problems (r <= 4): objective within 1e-6 of an
    eigendecomposition-free projected-gradient oracle; complementary
    slackness below 1e-9 on every call."""
    t0 = perf_counter()
    rng = np.random.default_rng(7)
    worst_obj = 0.0
    worst_cs = 0.0
    for i in range(100):
        n = 2 + i % 3
        g = rand_complex(rng, n + 1, n)
        a = g.conj().T @ g
        b = rand_complex(rng, n, 1).ravel()
        quad = float(np.vdot(b, a @ b).real)
        eps = float(rng.uniform(0.05, 0.6)) * quad
        x, mu = qcqp_spectral(b, hermitian_eig(a), eps, return_multiplier=True)
        xo = solve_based_qcqp_oracle(b, a, eps)
        obj = float(np.vdot(x - b, x - b).real)
        objo = float(np.vdot(xo - b, xo - b).real)
        worst_obj = max(worst_obj, abs(obj - objo) / max(objo, 1e-300))
        val = float(np.vdot(x, a @ x).real)
        worst_cs = max(worst_cs, mu * abs(val - eps) / eps)
    wall = perf_counter() - t0
    assert worst_obj <= 1e-6
    assert worst_cs <= 1e-9
    assert wall < 60.0
    print(f"[criterion 2] PASS: 100 instances, max objective deviation "
          f"{worst_obj:.2e}, max complementary slackness {worst_cs:.2e}, "
          f"{wall:.1f}s")


def test_criterion_03_kronecker_shortcut_is_exact():
    """The copy-block update computed in the two r-point eigenbases equals
    the explicit r^2 x r^2 Kronecker construction entrywise to 1e-9."""
    rng = np.random.default_rng(30)
    worst = 0.0
    for r in (2, 3, 4, 5, 6):
        k = max(1, r // 2)
        h = rand_complex(rng, r, k)
        hb = rand_complex(rng, 2 * k, r)
        he = rand_complex(rng, 2 * k, r)
        forms = QuadraticForms(e_b=hb.conj().T @ hb, h=h, e_e=he.conj().T @ he)
        eve_id = quad_objective(np.eye(r, dtype=complex), forms.e_e, forms.m)
        eps = 0.1 * eve_id
        state = PddState(omega=haar_unitary(rng, r),
                         psi=np.eye(r, dtype=complex),
                         lam=0.1 * rand_complex(rng, r), rho=0.8)
        fast = update_psi(state, forms, eps).psi

        target = state.omega + state.rho * (
            forms.e_b.conj().T @ state.omega @ forms.m.conj().T + state.lam)
        big = np.kron(forms.m.T, forms.e_e)
        x = qcqp_spectral(target.ravel(order="F"), hermitian_eig(big), eps)
        slow = x.reshape((r, r), order="F")
        diff = float(np.abs(fast - slow).max())
        scale = max(1.0, float(np.abs(slow).max()))
        assert diff <= 1e-9 * scale
        worst = max(worst, diff / scale)
    print(f"[criterion 3] PASS: r in 2..6, max entrywise deviation {worst:.2e}")


def test_criterion_04_architecture_ordering_over_cap_grid(sweep36):
    """r=36 reference setup, 10-cap grid: diagonal <= reciprocal <=
    non-reciprocal at every cap, every capped value below its uncapped
    value, and every curve non-decreasing in the cap (0.5% slack)."""
    rows = sweep36["rows"]
    spec = sweep36["spec"]
    by = _row_map(rows)
    assert all(r["converged"] for r in rows)

    obj0 = {a: by[(SCENARIO_NO_EVE, a, None)]["fim_bob"] for a in ARCHS}
    slack = 1.005
    for eps in spec.epsilon_grid:
        eps = float(eps)
        d = by[(SCENARIO_EVE, ARCH_DIAGONAL, eps)]["fim_bob"]
        c = by[(SCENARIO_EVE, ARCH_RECIPROCAL, eps)]["fim_bob"]
        n = by[(SCENARIO_EVE, ARCH_NONRECIPROCAL, eps)]["fim_bob"]
        assert d <= c * slack
        assert c <= n * slack
        for arch, val in ((ARCH_DIAGONAL, d), (ARCH_RECIPROCAL, c),
                          (ARCH_NONRECIPROCAL, n)):
            assert val <= obj0[arch] * slack
    for arch in ARCHS:
        curve = [by[(SCENARIO_EVE, arch, float(e))]["fim_bob"]
                 for e in spec.epsilon_grid]
        for lo, hi in zip(curve, curve[1:]):
            assert hi >= lo * (1.0 - 0.005)
    assert sweep36["wall"] < 600.0
    print(f"[criterion 4] PASS: 10-cap sweep ordered and monotone, "
          f"sweep wall {sweep36['wall']:.0f}s")


def test_criterion_05_reciprocity_gap_is_small(sweep36):
    """Symmetry costs less than 5% of the uncapped objective at both
    reference sizes; the measured ratios are logged."""
    by = _row_map(sweep36["rows"])
    r36 = (by[(SCENARIO_NO_EVE, ARCH_RECIPROCAL, None)]["fim_bob"]
           / by[(SCENARIO_NO_EVE, ARCH_NONRECIPROCAL, None)]["fim_bob"])

    forms = build_forms(generate_channels(SystemConfig(**SETUP_64)))
    _, rep_n = solve_nonreciprocal(forms)
    _, rep_r = solve_reciprocal_ao(forms)
    r64 = rep_r.objective / rep_n.objective

    assert r36 >= 0.95
    assert r64 >= 0.95
    print(f"[criterion 5] PASS: reciprocal/non-reciprocal ratio "
          f"{r36:.5f} at r=36, {r64:.5f} at r=64")


def test_criterion_06_slack_caps_saturate(sweep36):
    """Caps at or above each architecture's uncapped leakage leave the
    objective within 1% of the uncapped optimum."""
    by = _row_map(sweep36["rows"])
    spec = sweep36["spec"]
    checked = 0
    worst = 0.0
    for arch in ARCHS:
        ref = by[(SCENARIO_NO_EVE, arch, None)]
        obj0, eve0 = ref["fim_bob"], ref["fim_eve"]
        for eps in spec.epsilon_grid:
            if float(eps) < eve0:
                continue
            obj = by[(SCENARIO_EVE, arch, float(eps))]["fim_bob"]
            rel = abs(obj - obj0) / obj0
            assert rel <= 0.01
            worst = max(worst, rel)
            checked += 1
    assert checked >= 3   # the top of the grid clears every leakage level
    print(f"[criterion 6] PASS: {checked} saturated cells, "
          f"max objective deviation {worst:.2e}")


def test_criterion_07_capped_solutions_are_feasible(sweep36):
    """Every converged capped cell respects its cap within 0.1%; every
    active reciprocal cell meets its cap within 1e-9 (relative) and stays
    under the certified non-reciprocal dual bound, and every active
    non-reciprocal cell is within 1e-9 of its dual bound."""
    reports = sweep36["reports"]
    spec = sweep36["spec"]
    checked_caps = 0
    checked_reciprocal = 0
    checked_duals = 0
    for idx, eps in enumerate(spec.epsilon_grid):
        eps = float(eps)
        for arch in ARCHS:
            payload = reports[f"eve-{arch}-eps{idx:02d}"]
            assert payload["converged"]
            cv = payload["constraint_values"]
            assert cv["eve_value"] <= eps * (1 + 1e-3)
            checked_caps += 1
            if not cv["constraint_active"]:
                continue
            if arch == ARCH_RECIPROCAL:
                assert cv["eve_value"] <= eps * (1 + 1e-9)
                assert payload["objective"] <= cv["dual_bound"] * (1 + 1e-9)
                checked_reciprocal += 1
            elif arch == ARCH_NONRECIPROCAL:
                bound = cv["dual_bound"]
                assert bound - payload["objective"] <= 1e-9 * bound
                checked_duals += 1
    assert checked_caps == 30
    assert checked_reciprocal > 0
    assert checked_duals > 0
    print(f"[criterion 7] PASS: {checked_caps} capped cells feasible, "
          f"{checked_reciprocal} reciprocal cells on their cap and under "
          f"the dual bound, {checked_duals} dual gaps below 1e-9")


# The capped diagonal cells of the reference sweep as the quadratic-penalty
# projected gradient solved them (cap index -> fim_bob, total steps), before
# the augmented Lagrangian with Barzilai-Borwein steps replaced it.
PENALTY_DIAGONAL_CELLS = {
    0: (9785.373040382827, 53321),
    1: (16322.927381438358, 45463),
    2: (27122.435786986534, 53481),
    3: (44779.63259750054, 49958),
    4: (73023.7667575757, 65315),
    5: (113136.46861473256, 55372),
    6: (149538.99465269805, 26988),
}


def test_capped_diagonal_cells_beat_the_penalty_method(sweep36):
    """Every active capped diagonal cell of the reference sweep converges,
    reaches the penalty method's objective (to 1e-9 relative) in fewer
    steps, and stays under its certified bound."""
    reports = sweep36["reports"]
    active = []
    for idx in range(len(sweep36["spec"].epsilon_grid)):
        payload = reports[f"eve-{ARCH_DIAGONAL}-eps{idx:02d}"]
        if not payload["constraint_values"]["constraint_active"]:
            continue
        objective, steps = PENALTY_DIAGONAL_CELLS[idx]
        assert payload["constraint_values"]["stop_reason"] == "stationary"
        assert payload["objective"] >= objective * (1 - 1e-9)
        assert payload["iterations"] < steps
        assert payload["objective"] <= payload["bound"]
        active.append(idx)
    assert active == sorted(PENALTY_DIAGONAL_CELLS)
    steps = sum(reports[f"eve-{ARCH_DIAGONAL}-eps{i:02d}"]["iterations"] for i in active)
    print(f"[diagonal gate] PASS: {len(active)} capped cells at or above the "
          f"penalty method, {steps} steps against "
          f"{sum(s for _, s in PENALTY_DIAGONAL_CELLS.values())}")


def test_criterion_08_monte_carlo_mse_matches_crb():
    """10^4 estimation trials at the r=36 uncapped optimum reproduce the
    inverse-information bound within 3%."""
    t0 = perf_counter()
    cfg = SystemConfig(**SETUP_36)
    ch = generate_channels(cfg)
    forms = build_forms(ch)
    ris, _ = solve_nonreciprocal(forms)
    crb = crb_trace(fim_matrix(ch, ris, "bob"))
    mse = simulate_mle_mse(ch, ris, trials=10_000, seed=123)
    wall = perf_counter() - t0
    rel = abs(mse - crb) / crb
    assert rel <= 0.03
    assert wall < 120.0
    print(f"[criterion 8] PASS: mse {mse:.6e} vs crb {crb:.6e} "
          f"(rel {rel:.2%}), {wall:.1f}s")


def test_criterion_09_kernel_property_suites():
    """1000 seeded inputs through every factorization kernel: Hermitian
    reconstruction to 1e-10, symmetric-factor reconstruction to 1e-9,
    unitary outputs, projection idempotence to 1e-10, exponential group
    property to 1e-9."""
    t0 = perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        eye = np.eye(n)

        g = rand_complex(rng, n)
        herm = g + g.conj().T
        eig = hermitian_eig(herm)
        recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(recon - herm) <= 1e-10 * np.linalg.norm(herm)
        assert np.linalg.norm(eig.vectors.conj().T @ eig.vectors - eye) <= 1e-10
        assert np.all(np.diff(eig.values) <= 1e-12)

        g = rand_complex(rng, n)
        sym = g + g.T
        fac = takagi(sym)
        recon = (fac.u * fac.sigma) @ fac.u.T
        assert np.linalg.norm(recon - sym) <= 1e-9 * np.linalg.norm(sym)
        assert np.linalg.norm(fac.u.conj().T @ fac.u - eye) <= 1e-10
        assert np.all(fac.sigma >= -1e-12)
        assert np.all(np.diff(fac.sigma) <= 1e-12)

        z = rand_complex(rng, n)
        skew = z - z.conj().T
        a, b = rng.uniform(0.1, 1.0, size=2)
        ua = expm_skew(skew, a)
        assert np.linalg.norm(ua.conj().T @ ua - eye) <= 1e-10
        combined = expm_skew(skew, a + b)
        assert np.linalg.norm(ua @ expm_skew(skew, b) - combined) \
            <= 1e-9 * max(1.0, np.linalg.norm(combined))

        t = rand_complex(rng, n)
        p = unitary_procrustes(t)
        assert np.linalg.norm(p.conj().T @ p - eye) <= 1e-10
        assert np.linalg.norm(unitary_procrustes(p) - p) <= 1e-10

        q = nearest_symmetric_unitary(t)
        assert np.linalg.norm(q - q.T) <= 1e-9
        assert np.linalg.norm(q.conj().T @ q - eye) <= 1e-9
        assert np.linalg.norm(nearest_symmetric_unitary(q) - q) <= 1e-10
    wall = perf_counter() - t0
    assert wall < 60.0
    print(f"[criterion 9] PASS: 1000 seeded inputs through all kernels, "
          f"{wall:.1f}s")


def test_criterion_10_repeated_run_is_byte_identical(sweep36):
    """Re-running the same r=36 sweep reproduces the result files byte for
    byte (timings are confined to the JSON reports).  Monte-Carlo cells are
    exercised separately; the table here gates the solver outputs."""
    spec = sweep36["spec"]
    again = ExperimentSpec(
        cfg=spec.cfg,
        epsilon_grid=spec.epsilon_grid.copy(),
        output_path=sweep36["tmp"] / "run2",
    )
    run_experiment(again)
    first = (spec.output_path / "results.csv").read_bytes()
    second = (again.output_path / "results.csv").read_bytes()
    assert first == second
    for stem in ("fim_vs_eps", "crb_vs_eps"):
        for ext in (".dat", ".gp"):
            a = (spec.output_path / "plots" / (stem + ext)).read_bytes()
            b = (again.output_path / "plots" / (stem + ext)).read_bytes()
            assert a == b
    print(f"[criterion 10] PASS: results.csv ({len(first)} bytes) and plot "
          f"files identical across runs")


def test_reference_sweep_matches_golden_cells(sweep36):
    """Every cell of the r=36 sweep matches ``golden/sweep36.json`` column
    by column: strings and flags exactly, numbers within the relative
    tolerances of ``golden/tolerances.json``, and iteration counts within
    its factor either way."""
    golden = json.loads((GOLDEN / "sweep36.json").read_text(encoding="utf-8"))
    tols = json.loads((GOLDEN / "tolerances.json").read_text(encoding="utf-8"))
    cells = {stem: golden_row(p) for stem, p in sweep36["reports"].items()}
    assert sorted(cells) == sorted(golden)
    worst = {}
    for stem, key, _, _, rel, admitted in golden_moves(cells, golden, tols):
        assert admitted, (stem, key, rel)
        if rel is not None:
            arch = golden[stem]["architecture"]
            worst[arch] = max(worst.get(arch, 0.0), rel)
    print(f"[golden] PASS: {len(golden)} cells, max relative deviation "
          + ", ".join(f"{arch} {worst[arch]:.1e}" for arch in ARCHS))

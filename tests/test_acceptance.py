"""End-to-end acceptance suite.

Each test covers one release gate and prints a single pass/fail line so a
plain ``pytest -s tests/test_acceptance.py`` run doubles as a checklist:

1. averaged stationarity bound for the splitting method under the theory
   step size; 1b. its averaged infeasibility bound on the same runs;
   1c. 1b's telescoped bound on every path of minibatch-noise runs;
2. per-iteration certificate nonpositivity for convex g, h;
3. desk-scale benchmark protocol on chr12a plus a small manifest sweep;
4. minibatch variance law of the synthetic noise oracle;
5. exact agreement of combinatorial oracles with brute-force enumeration;
6. gradient and smoothness-constant checks against independent numerics;
7. bit-identical collapse of the zero-variance stochastic run onto the
   deterministic one;
8. byte-identical output files for repeated identical runs.

Criteria 1, 1b, 1c, 2 and 7 read every iteration of a run from
``iterations.iterations``, the step generator ``run_tos`` consumes;
``test_solver.py`` checks that the two agree bit for bit.
"""

import dataclasses
import importlib.resources
import itertools
import json
import math
import time

import numpy as np
import pytest

from tosqap import (
    CompositeProblem,
    GradientOracle,
    QapInstance,
    SolverConfig,
    StepRule,
    batch_schedule_lipschitz,
    build_problem,
    certificate_residual,
    estimate_smoothness,
    frobenius_inner,
    frobenius_norm,
    gaussian_noise_oracle,
    load_instance,
    make_rng,
    minibatch_gradient,
    nonstationarity_error,
    permutation_to_matrix,
    project_affine_doubly_stochastic,
    qap_gradient,
    qap_objective,
    relax_and_round,
    round_to_permutation,
    solve_lap_min,
    stationarity_gap,
)
from tosqap.cli import main as cli_main
from tosqap.lap import Permutation
from tosqap.prox import prox_box01
from tosqap.qap import SPLIT1, SPLIT2

from iterations import iterations


def report(num, label, ok):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def random_uniform_instance(n, seed):
    rng = make_rng(seed)
    return QapInstance(f"acc{n}s{seed}", rng.uniform(0, 1, (n, n)), rng.uniform(0, 1, (n, n)))


def birkhoff_lmo(grad):
    return permutation_to_matrix(solve_lap_min(grad).permutation)


def random_doubly_stochastic(rng, n, k=6):
    w = rng.dirichlet(np.ones(k))
    return sum(w[i] * np.eye(n)[rng.permutation(n)] for i in range(k))


def test_criterion_1_averaged_stationarity_bound():
    start = time.perf_counter()
    ok = True
    for seed in range(5):
        inst = random_uniform_instance(8, seed)
        problem = build_problem(inst, SPLIT1)
        d_g = problem.d_g
        for t_total in (8, 64, 512):
            gaps, grad_norms = [], []
            for t, gamma, u, z, x, y, y_next in iterations(
                    problem, SolverConfig(iters=t_total, step=StepRule(kind="theory")),
                    np.full((8, 8), 1.0 / 8)):
                g = qap_gradient(inst, z)
                grad_norms.append(frobenius_norm(g))
                gaps.append(stationarity_gap(g, z, birkhoff_lmo(g)))
            avg = float(np.mean(gaps))
            bound = 4.0 * max(grad_norms) * d_g / t_total ** (1.0 / 3.0)
            ok &= avg <= bound + 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(1, f"averaged stationarity gap within 4*G*D/T^(1/3) on 5 instances "
              f"({elapsed:.1f}s)", ok)


#: Criterion 2's gate on one computed certificate residual (LHS - RHS).
CERTIFICATE_SLACK = 1e-9


def test_criterion_1b_averaged_infeasibility_bound():
    # Criterion 1's runs.  With g, h the indicators of split1's two sets and
    # x_ref = y_1 = J/8 in both, criterion 2's certificate times 2 gamma,
    # summed over t = 1..T, telescopes in ||y_t - x_ref||^2 and leaves
    #     sum ||x_t - z_t||^2 <= ||y_1 - x_ref||^2 + 2 gamma sum <u_t, x_ref - x_t>.
    # z_t is row-stochastic, so ||u_t|| <= G_f = problem.g_f; x_t and x_ref are
    # column-stochastic, so ||x_ref - x_t|| <= D_h = sqrt(2 n) = D_g.  The theory
    # step gamma = D_g / (2 G_f T^(2/3)) then gives
    #     mean ||x_t - z_t||^2 <= ||y_1 - x_ref||^2 / T + D_g D_h / T^(2/3),
    # a bound on the infeasibility, as dist(z_t, second set) <= ||x_t - z_t||.
    # Rounding: each computed certificate may exceed 0 by CERTIFICATE_SLACK
    # (criterion 2), which moves the sum by at most 2 gamma T CERTIFICATE_SLACK.
    # Split2's second set, an affine subspace, is unbounded: split1 only.
    n = 8
    y1 = np.full((n, n), 1.0 / n)
    x_ref = y1
    worst_sum = worst_mean = 0.0
    ok = True
    for seed in range(5):
        inst = random_uniform_instance(n, seed)
        problem = build_problem(inst, SPLIT1)
        d_g = d_h = problem.d_g
        assert problem.g_f == 2.0 * float(np.linalg.norm(inst.a, 2)) * float(
            np.linalg.norm(inst.b, 2)) * math.sqrt(n)
        for t_total in (8, 64, 512):
            gammas, squares, inners = set(), [], []
            for t, gamma, u, z, x, y, y_next in iterations(
                    problem, SolverConfig(iters=t_total, step=StepRule(kind="theory")), y1):
                gammas.add(gamma)
                squares.append(frobenius_norm(x - z) ** 2)
                inners.append(frobenius_inner(u, x_ref - x))
            (gamma,) = gammas
            margin = 2.0 * gamma * t_total * CERTIFICATE_SLACK
            telescoped = frobenius_norm(y1 - x_ref) ** 2 + 2.0 * gamma * sum(inners)
            closed = (frobenius_norm(y1 - x_ref) ** 2 / t_total
                      + d_g * d_h / t_total ** (2.0 / 3.0))
            ok &= sum(squares) <= telescoped + margin
            ok &= float(np.mean(squares)) <= closed + margin / t_total
            worst_sum = max(worst_sum, sum(squares) / telescoped)
            worst_mean = max(worst_mean, float(np.mean(squares)) / closed)
    report("1b", f"sum ||x_t - z_t||^2 within the telescoped certificate (worst "
                 f"{worst_sum:.2f} of it) and its mean within ||y_1 - x_ref||^2/T + "
                 f"D_g D_h/T^(2/3) (worst {worst_mean:.1e}) on 5 instances", ok)


def test_criterion_1c_telescoped_bound_under_noise():
    # 1b's telescoped bound uses only the optimality conditions of the two
    # projections, not what u_t is, so it holds on every path of a stochastic
    # run, with u_t the minibatch mean of noisy draws:
    #     sum ||x_t - z_t||^2 <= ||y_1 - x_ref||^2 + 2 gamma sum <u_t, x_ref - x_t>.
    # 1b's runs, with noise sigma in {0.1, 1, 10} G_f, the theory batch for T,
    # and the instance's seed; the same rounding margin as 1b.
    n = 8
    y1 = np.full((n, n), 1.0 / n)
    x_ref = y1
    worst = 0.0
    ok = True
    for seed in range(5):
        det = build_problem(random_uniform_instance(n, seed), SPLIT1)
        for t_total, scale in itertools.product((8, 64, 512), (0.1, 1.0, 10.0)):
            sto = dataclasses.replace(
                det, stochastic=gaussian_noise_oracle(det.oracle, scale * det.g_f),
                batch=batch_schedule_lipschitz(t_total, det.g_f))
            gammas, squares, inners = set(), [], []
            for t, gamma, u, z, x, y, y_next in iterations(
                    sto, SolverConfig(iters=t_total, step=StepRule(kind="theory"), seed=seed), y1):
                gammas.add(gamma)
                squares.append(frobenius_norm(x - z) ** 2)
                inners.append(frobenius_inner(u, x_ref - x))
            (gamma,) = gammas
            margin = 2.0 * gamma * t_total * CERTIFICATE_SLACK
            telescoped = frobenius_norm(y1 - x_ref) ** 2 + 2.0 * gamma * sum(inners)
            ok &= sum(squares) <= telescoped + margin
            worst = max(worst, sum(squares) / telescoped)
    report("1c", f"sum ||x_t - z_t||^2 within the telescoped certificate under "
                 f"minibatch noise, sigma up to 10 G_f (worst {worst:.3f} of it), "
                 f"on 5 instances", ok)


def test_criterion_2_certificate_nonpositivity():
    rng = make_rng(202)
    worst = -np.inf
    box = prox_box01()
    for run in range(20):
        n = 4
        if run % 2 == 0:
            # convex quadratic pulled toward a random target
            m = rng.standard_normal((n, n))
            oracle = GradientOracle(
                value=lambda x, m=m: 0.5 * frobenius_norm(x - m) ** 2,
                gradient=lambda x, m=m: x - m)
            problem = CompositeProblem(
                oracle=oracle, prox_g=box, prox_h=box, shape=(n, n))
            refs = [rng.uniform(0, 1, (n, n)) for _ in range(5)]
        else:
            inst = random_uniform_instance(n, 100 + run)
            problem = build_problem(inst, SPLIT1)
            refs = [random_doubly_stochastic(rng, n) for _ in range(5)]
        y1 = rng.uniform(0, 1, (n, n))
        residuals = [certificate_residual(gamma, u, x, z, y, y_next, ref,
                                          problem.prox_g.value, problem.prox_h.value)
                     for t, gamma, u, z, x, y, y_next in iterations(
                         problem, SolverConfig(iters=40, step=StepRule.fixed(0.2)), y1)
                     for ref in refs]
        worst = max(worst, max(residuals))
    ok = worst <= 1e-9
    report(2, f"certificate residual <= 1e-9 over 20 runs x 5 references "
              f"(worst {worst:.2e})", ok)


def test_criterion_3_desk_benchmark_protocol(tmp_path):
    start = time.perf_counter()
    path = importlib.resources.files("tosqap") / "data" / "chr12a.dat"
    inst = load_instance(path, best_known=9552.0)
    res = relax_and_round(
        inst, SPLIT2,
        SolverConfig(iters=100_000, step=StepRule.inv_smoothness()),
        tol=1e-5)
    elapsed = time.perf_counter() - start
    converged = res.infeasibility < 1e-5 and res.nonstationarity < 1e-5
    in_time = elapsed < 120.0

    # Running minimum of the traced error must drop 10x over the last
    # decade of logged iteration counts.
    errs = [max(r.infeasibility, r.nonstationarity) for r in res.run.trace]
    ts = [r.t for r in res.run.trace]
    run_min = np.minimum.accumulate(errs)
    t_final = ts[-1]
    idx_decade = max(i for i, t in enumerate(ts) if t <= t_final / 10)
    decade_drop = run_min[idx_decade] >= 10.0 * run_min[-1]

    # 5-instance manifest sweep with the tally accounting identity.
    entries = [{"path": str(path), "best_known": 9552.0}]
    for k in range(4):
        rng = make_rng(300 + k)
        n = 6
        a = rng.integers(0, 10, (n, n))
        b = rng.integers(0, 10, (n, n))
        p = tmp_path / f"bench{k}.dat"
        lines = [str(n)] + [" ".join(map(str, row)) for row in a]
        lines += [" ".join(map(str, row)) for row in b]
        p.write_text("\n".join(lines) + "\n")
        entries.append({"path": str(p)})
    manifest = {
        "instances": entries,
        "solvers": ["tos-split1", "tos-split2", "fw"],
        "config": {"iters": 2000, "seed": 0, "step": "invL", "tol": 1e-5},
        "out_dir": str(tmp_path / "bench_out"),
    }
    mp = tmp_path / "manifest.json"
    mp.write_text(json.dumps(manifest))
    bench_rc = cli_main(["bench", str(mp)])
    bench_report = json.loads((tmp_path / "bench_out" / "bench_summary.json").read_text())
    rows = bench_report["rows"]
    tally_ok = bench_rc == 0 and all("error" not in r for r in rows)
    for pair, t in bench_report["tally"].items():
        tally_ok &= t["win"] + t["tie"] + t["loss"] == 5

    ok = converged and in_time and decade_drop and tally_ok
    report(3, f"chr12a errors < 1e-5 in {res.run.iterations_run} iters "
              f"({elapsed:.1f}s), 10x last-decade drop, 5-instance tally identity", ok)


def test_criterion_4_variance_law():
    sigma = 1.0
    oracle = GradientOracle(
        value=lambda x: 0.5 * frobenius_norm(x) ** 2,
        gradient=lambda x: np.asarray(x))
    noisy = gaussian_noise_oracle(oracle, sigma)
    rng = make_rng(404)
    x = rng.standard_normal((3, 3))
    g = oracle.gradient(x)
    reps = 10_000
    ok = True
    ratios = []
    for batch in (1, 4, 16, 64):
        mse = 0.0
        for _ in range(reps):
            u = minibatch_gradient(noisy, x, batch, rng)
            mse += frobenius_norm(u - g) ** 2
        mse /= reps
        ratio = mse / (sigma**2 / batch)
        ratios.append(ratio)
        ok &= 0.8 <= ratio <= 1.2
    report(4, "minibatch MSE within [0.8, 1.2] x sigma^2/batch, ratios "
              + ", ".join(f"{r:.3f}" for r in ratios), ok)


def test_criterion_5_oracle_equivalences():
    rng = make_rng(505)
    ok = True

    # assignment solver vs enumeration, exact value equality
    for trial in range(200):
        n = 2 + trial % 6
        cost = rng.standard_normal((n, n)) * 5
        sol = solve_lap_min(cost)
        got = sum(cost[i, sol.permutation.mapping[i]] for i in range(n))
        want = min(sum(cost[i, p[i]] for i in range(n))
                   for p in itertools.permutations(range(n)))
        ok &= got == want

    # rounding vs nearest-permutation enumeration
    for n in (2, 3, 4, 5, 6, 7):
        x = rng.standard_normal((n, n))
        got_p = round_to_permutation(x)
        best = min(itertools.permutations(range(n)),
                   key=lambda p: frobenius_norm(
                       x - permutation_to_matrix(Permutation(n, p))))
        ok &= got_p.mapping == best

    # nonstationarity numerator vs enumeration
    for n in (3, 4, 5, 6):
        inst = random_uniform_instance(n, 500 + n)
        x = rng.dirichlet(np.ones(n), size=n)
        grad = qap_gradient(inst, x)
        lap_min = min(sum(grad[i, p[i]] for i in range(n))
                      for p in itertools.permutations(range(n)))
        want = abs(float(np.sum(grad * x)) - lap_min) / max(qap_objective(inst, x), 1.0)
        ok &= abs(nonstationarity_error(inst, x) - want) <= 1e-12 * max(1.0, want)

    # affine projection vs dense least squares
    for n in range(2, 11):
        x = rng.standard_normal((n, n)) * 3
        got = project_affine_doubly_stochastic(x)
        rows = []
        for i in range(n):
            c = np.zeros((n, n)); c[i, :] = 1.0; rows.append(c.ravel())
        for j in range(n):
            c = np.zeros((n, n)); c[:, j] = 1.0; rows.append(c.ravel())
        C = np.array(rows)
        lam = np.linalg.pinv(C @ C.T) @ (C @ x.ravel() - np.ones(2 * n))
        want = (x.ravel() - C.T @ lam).reshape(n, n)
        ok &= float(np.max(np.abs(got - want))) <= 1e-10
    report(5, "assignment/rounding/nonstationarity/projection oracles match "
              "enumeration and least squares", ok)


def test_criterion_6_gradient_and_smoothness():
    rng = make_rng(606)
    ok = True
    for trial in range(20):
        inst = random_uniform_instance(4, 600 + trial)
        x = rng.standard_normal((4, 4))
        d = rng.standard_normal((4, 4))
        d /= frobenius_norm(d)
        eps = 1e-6
        fd = (qap_objective(inst, x + eps * d) - qap_objective(inst, x - eps * d)) / (2 * eps)
        an = float(np.sum(qap_gradient(inst, x) * d))
        ok &= abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    inst = random_uniform_instance(4, 660)
    n = inst.n
    dense = np.zeros((n * n, n * n))
    for k in range(n * n):
        e = np.zeros((n, n))
        e.flat[k] = 1.0
        dense[:, k] = (inst.a @ e @ inst.b.T + inst.a.T @ e @ inst.b).ravel()
    want = float(np.linalg.svd(dense, compute_uv=False)[0])
    got = estimate_smoothness(inst)
    ok &= abs(got - want) <= 1e-5 * want
    report(6, f"gradient matches finite differences (1e-6 rel, 20 pairs); "
              f"smoothness {got:.6g} vs dense SVD {want:.6g}", ok)


def test_criterion_7_stochastic_deterministic_collapse():
    inst = random_uniform_instance(6, 707)
    det = build_problem(inst, SPLIT1)
    t_total = 64
    batch = batch_schedule_lipschitz(t_total, det.g_f)
    sto = CompositeProblem(
        oracle=det.oracle, prox_g=det.prox_g, prox_h=det.prox_h,
        shape=det.shape, d_g=det.d_g, g_f=det.g_f,
        stochastic=gaussian_noise_oracle(det.oracle, 0.0), batch=batch)
    cfg = SolverConfig(iters=t_total, step=StepRule.fixed(0.01), seed=5)
    y1 = np.full((6, 6), 1.0 / 6)
    traj_det, traj_sto = (
        [(z.tobytes(), x.tobytes(), y.tobytes()) for t, g, u, z, x, y, yn in iterations(p, cfg, y1)]
        for p in (det, sto))
    ok = traj_det == traj_sto
    report(7, f"zero-variance stochastic trajectory bit-identical to "
              f"deterministic (batch {batch}, {t_total} iters)", ok)


def test_criterion_8_byte_identical_outputs(tmp_path):
    rng = make_rng(808)
    n = 5
    a = rng.integers(0, 10, (n, n))
    b = rng.integers(0, 10, (n, n))
    inst_path = tmp_path / "det.dat"
    lines = [str(n)] + [" ".join(map(str, row)) for row in a]
    lines += [" ".join(map(str, row)) for row in b]
    inst_path.write_text("\n".join(lines) + "\n")
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(["solve", str(inst_path), "--solver", "tos-split2",
                       "--iters", "500", "--seed", "11", "--out", str(out)])
        assert rc == 0
        stem = "det_tos-split2_seed11"
        blobs.append((
            (out / f"{stem}.trace.csv").read_bytes(),
            (out / f"{stem}.iterate.txt").read_bytes(),
        ))
    ok = blobs[0] == blobs[1]
    report(8, "repeated identical runs produce byte-identical trace and "
              "iterate files", ok)

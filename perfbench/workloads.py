"""Workload definitions and the cells each round runs.

The seed picks the instance; the initial points are a fixed panel.  Round
``r`` starts from ``initial_point(n, r % starts)`` and runs every cell kind
from it, in this order: ``init`` (the ``initial_point`` call itself),
``split1`` and ``split2`` (``relax_and_round``), ``fw`` (``run_fw``),
``consensus`` (``run_tos_product_space`` over the row-stochastic,
column-stochastic and box sets) and ``stochastic`` (``run_tos`` with a
minibatch Gaussian-noise oracle and the random-iterate output).  The solvers of a round share its
initial point, as in ``scripts/run_chr12a.py`` and ``tosqap bench``.

Why the starts are fixed: on chr12a the work and the rounded value depend
strongly on the start (over 40 seeded starts, TOS stopped anywhere from
t = 1024 to the 100 000 cap, FW stopped early from a quarter of them, and
the rounded value ranged over a factor of two).  A run affords only a few
starts, so seeded starts would make the run-to-run spread measure the start
distribution instead of the program.  On chr12a the seed instead relabels
the instance: A and B are permuted by seeded permutations and the start with
them, which leaves the problem, the solver paths and the rounded values the
same in exact arithmetic while the program sees seed-dependent inputs.

Every call goes through a module attribute looked up at call time
(``tq.qap.relax_and_round``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional

CELL_KINDS = ("init", "split1", "split2", "fw", "consensus", "stochastic")
TOS_KINDS = ("split1", "split2")

#: Stop tolerance of the TOS and FW cells, as ``scripts/run_chr12a.py`` and
#: ``scripts/run_bench.py`` set it.
TOL = 1e-5
#: Batch size of the minibatch cells.
BATCH = 8
#: Noise level of the minibatch oracle, as a share of the smoothness
#: constant L; with the step 1/L a draw moves the iterate by about 0.05.
SIGMA_PER_L = 0.05
#: Best known value of chr12a (QAPLIB).
CHR12A_BEST = 9552.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: Optional[int]  # size of the seeded random instance; None = chr12a
    starts: int  # panel of initial points one pass of the run covers
    tos_iters: int
    fw_iters: int
    consensus_iters: int
    stochastic_iters: int


# Every run reports every end-to-end metric, so every workload runs all six
# cell kinds.  chr12a's TOS and FW cells are those of scripts/run_chr12a.py
# (FW capped at 4096); composite's are those of ``tosqap bench`` at its
# default cap of 1000 iterations.  Both run the same consensus and minibatch
# cells.  rand100 is not declared in BENCHMARK.json (NOTE.md says why).
WORKLOADS = {
    w.name: w for w in (
        Workload(name="chr12a", n=None, starts=5, tos_iters=100_000, fw_iters=4096,
                 consensus_iters=4096, stochastic_iters=8192),
        Workload(name="rand100", n=100, starts=2, tos_iters=256, fw_iters=16,
                 consensus_iters=64, stochastic_iters=8),
        Workload(name="composite", n=None, starts=6, tos_iters=1000, fw_iters=1000,
                 consensus_iters=4096, stochastic_iters=8192),
    )
}


def make_instance(tq, workload: Workload, seed: int, index: int = 0):
    """``(instance, relabel)`` for the seed and round ``index``.

    chr12a is relabeled: A_ij -> A_p(i)p(j) and B_kl -> B_q(k)q(l) with
    seeded permutations p, q, the ``index``-th pair drawn from the seed;
    ``relabel(x)`` maps a point of the original problem to the same point of
    the relabeled one, x_ik -> x_p(i)q(k).  Each round gets its own pair
    because the LAP solver's work depends on the labeling (one FW solve
    took 3.2 s under some and 4.1 s under another), so a run averages over
    as many labelings as it has rounds.  A random instance has integer
    entries uniform in 0..99, generated as ``scripts/run_bench.py`` does,
    the same for every ``index``, and ``relabel`` is the identity.
    """
    if workload.n is None:
        path = os.path.join(os.path.dirname(tq.__file__), "data", "chr12a.dat")
        inst = tq.qap.load_instance(path, best_known=CHR12A_BEST)
        rng = tq.linalg.make_rng(seed)
        for _ in range(index + 1):
            p, q = rng.permutation(inst.n), rng.permutation(inst.n)
        relabeled = tq.qap.QapInstance(inst.name, inst.a[p][:, p], inst.b[q][:, q],
                                       best_known=inst.best_known)
        return relabeled, lambda x: x[p][:, q]
    rng = tq.linalg.make_rng(seed)
    a = rng.integers(0, 100, (workload.n, workload.n))
    b = rng.integers(0, 100, (workload.n, workload.n))
    return tq.qap.QapInstance(f"rand{workload.n}", a, b), lambda x: x


def random_mean(inst) -> float:
    """Mean objective over uniformly random permutations:
    sum(A_off) sum(B_off) / (n (n - 1)) + tr(A) tr(B) / n."""
    n = inst.n
    tr_a, tr_b = float(inst.a.trace()), float(inst.b.trace())
    off_a, off_b = float(inst.a.sum()) - tr_a, float(inst.b.sum()) - tr_b
    return off_a * off_b / (n * (n - 1)) + tr_a * tr_b / n


def run_cell(tq, workload: Workload, inst, kind: str, y1, seed: int):
    """Run one cell and return the library's result object."""
    if kind == "init":
        return tq.qap.initial_point(inst.n, seed)
    if kind in TOS_KINDS:
        config = tq.solver.SolverConfig(
            iters=workload.tos_iters, step=tq.solver.StepRule.inv_smoothness(), seed=seed)
        return tq.qap.relax_and_round(inst, kind, config, tol=TOL, y1=y1)
    if kind == "fw":
        config = tq.fw.FwConfig(max_iters=workload.fw_iters, gap_tolerance=TOL)
        return tq.fw.run_fw(inst, y1, config)
    l_smooth = tq.qap.estimate_smoothness(inst)
    step = tq.solver.StepRule.inv_smoothness(l_smooth)
    if kind == "consensus":
        proxes = [tq.prox.prox_row_stochastic(), tq.prox.prox_col_stochastic(),
                  tq.prox.prox_box01()]
        config = tq.solver.SolverConfig(iters=workload.consensus_iters, step=step, seed=seed)
        return tq.solver.run_tos_product_space(tq.qap.qap_oracle(inst), proxes, config, y1)
    if kind == "stochastic":
        problem = tq.qap.build_problem(inst, "split2")
        noisy = tq.oracles.gaussian_noise_oracle(problem.oracle, SIGMA_PER_L * l_smooth)
        problem = dataclasses.replace(problem, stochastic=noisy, batch=BATCH)
        config = tq.solver.SolverConfig(
            iters=workload.stochastic_iters, step=step, output="random", seed=seed)
        return tq.solver.run_tos(problem, config, y1)
    raise ValueError(f"unknown cell kind {kind!r}")


def replays(tq, workload: Workload) -> bool:
    """Whether the stochastic cell replays the run to recover z_tau."""
    return workload.stochastic_iters > tq.solver.SNAPSHOT_CAP


def shrink(tq, workload: Workload, n: int = 6, iters: int = 8) -> Workload:
    """A tiny copy of ``workload`` on a seeded n x n instance, for smoke tests.
    Its minibatch cell replays when the workload's does, so it runs just
    over SNAPSHOT_CAP iterations then."""
    stochastic = tq.solver.SNAPSHOT_CAP + iters if replays(tq, workload) else iters
    return dataclasses.replace(
        workload, n=n, tos_iters=iters, fw_iters=iters, consensus_iters=iters,
        stochastic_iters=stochastic)

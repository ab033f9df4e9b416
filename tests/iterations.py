"""Every iteration of a ``run_tos`` run, read off the generator it consumes.

``solver._steps`` holds the only copy of the splitting iteration;
``run_tos`` runs it at the step its config's rule resolves to, with the
generator seeded by ``config.seed``.  Fed the same, it yields the same
iterations bit for bit, which ``test_solver.py`` checks against the run's
trace, iteration count and output.
"""

from tosqap.linalg import make_rng
from tosqap.solver import _steps


def iterations(problem, config, y1, count=None):
    """(t, gamma, u_t, z_t, x_t, y_t, y_{t+1}) of the first ``count``
    iterations (all ``config.iters`` by default) of ``run_tos(problem,
    config, y1)``."""
    gamma = config.step.resolve(problem, config.iters)
    for t, u, z, x, y, y_next in _steps(problem, gamma, y1, make_rng(config.seed),
                                        count or config.iters):
        yield t, gamma, u, z, x, y, y_next

"""The generalized-derivative scan as whole columns, for the tests that
compare it with references: the jobs of the certificate scans, collected
by ``reduction._scan``."""

from dataclasses import dataclass

import numpy as np

from incred import reduction
from incred.derivative import _derivative_job


@dataclass(frozen=True)
class Scan:
    value: np.ndarray
    minus_inf: np.ndarray
    extras: tuple


def derivative_scans(inclusion, jobs, nodes, time_nodes) -> list[Scan]:
    """Each ``(candidate, reducers, extras)`` job along ``inclusion`` at
    every (time node, node) pair, in one pass: the generalized derivative
    (0.0 where ``minus_inf`` flags minus infinity), and each extra
    expression in its map's environment, each ``(time nodes, nodes)``."""
    pts = reduction._node_array(nodes, inclusion.n_in)
    columns = reduction._scan([_derivative_job(inclusion, *job, pts.shape[-1])
                               for job in jobs], pts, time_nodes)
    return [Scan(value, minus_inf, tuple(extras))
            for value, minus_inf, *extras in columns]

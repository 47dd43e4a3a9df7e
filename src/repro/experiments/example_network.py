"""Figure 2 / Section 3 worked example: why packet independence fails.

The paper's three-node example has node A initiating 3 connections of 100
packets in each direction, node B 3 connections of 2 packets each way and
node C 3 connections of 1 packet each way, with every node equally likely to
be the responder.  Even though *connections* are independent, the resulting
packet-level conditional probabilities ``P[E = A | I = x]`` differ wildly from
the marginal ``P[E = A]`` — the quantities the paper lists as ≈0.50, ≈0.93,
≈0.95 versus ≈0.65.  This experiment reconstructs the example's traffic
matrix from the IC decomposition and reports those probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._tables import format_rows

__all__ = ["ExampleNetworkResult", "run_example_network"]


@dataclass(frozen=True)
class ExampleNetworkResult:
    """Outcome of the Figure 2 worked example.

    Attributes
    ----------
    traffic_matrix:
        The 3x3 packet-count matrix of the example (including self-loops).
    conditional_egress_given_ingress:
        ``P[E = A | I = x]`` for x in A, B, C.
    marginal_egress:
        ``P[E = A]``.
    gravity_would_predict_equal:
        Whether the gravity model's prediction (all conditionals equal to the
        marginal) holds — expected to be False.
    """

    traffic_matrix: np.ndarray
    conditional_egress_given_ingress: dict[str, float]
    marginal_egress: float
    gravity_would_predict_equal: bool

    def format_table(self) -> str:
        rows = [
            [f"P[E=A | I={node}]", probability]
            for node, probability in self.conditional_egress_given_ingress.items()
        ]
        rows.append(["P[E=A]", self.marginal_egress])
        return format_rows(["quantity", "value"], rows)


def run_example_network() -> ExampleNetworkResult:
    """Reconstruct the Figure 2 example and its packet-level probabilities."""
    nodes = ("A", "B", "C")
    # Connection volumes per initiator (packets per direction, per connection):
    # each node initiates one connection to every node (including itself).
    per_connection = {"A": 100.0, "B": 2.0, "C": 1.0}
    n = len(nodes)
    matrix = np.zeros((n, n))
    for i, initiator in enumerate(nodes):
        volume = per_connection[initiator]
        for j in range(n):
            # forward traffic initiator -> responder
            matrix[i, j] += volume
            # reverse traffic responder -> initiator
            matrix[j, i] += volume
    # Total ingress at a node = all traffic entering the network there = row sum.
    total = matrix.sum()
    egress_a = matrix[:, 0]
    ingress_totals = matrix.sum(axis=1)
    conditionals = {
        node: float(egress_a[i] / ingress_totals[i]) for i, node in enumerate(nodes)
    }
    marginal = float(matrix[:, 0].sum() / total)
    spread = max(conditionals.values()) - min(conditionals.values())
    return ExampleNetworkResult(
        traffic_matrix=matrix,
        conditional_egress_given_ingress=conditionals,
        marginal_egress=marginal,
        gravity_would_predict_equal=bool(spread < 1e-9),
    )

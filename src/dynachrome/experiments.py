"""Statistical experiment harnesses with bit-reproducible reports.

Every trial derives its own seed from (master seed, trial index), so the
per-trial records are independent of execution order and a parallel run
would produce the identical report.  Aggregates are plain functions of the
per-trial records and can be recomputed from them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional

from .constructions import triangle_certificate
from .exact import chromatic_number, dynamic_chromatic_number, greedy_coloring
from .graphs import Graph, gnp, is_connected, random_regular
from .verify import check_dynamic, check_proper

__all__ = [
    "ExperimentReport",
    "derive_seed",
    "run_gnp_triangle_experiment",
    "conjecture_scan",
]

REPORT_SCHEMA = "dynachrome-report/1"

# Seeds tried per order before a cubic scan trial gives up on connectivity.
CUBIC_ATTEMPTS = 200


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed from (master seed, trial index); affine so distinct
    trials never collide within an experiment."""
    return master * 1_000_003 + index


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict
    master_seed: int
    trials: tuple[dict, ...]
    aggregates: dict
    schema: str = REPORT_SCHEMA

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "parameters": self.parameters,
            "master_seed": self.master_seed,
            "trials": list(self.trials),
            "aggregates": self.aggregates,
        }

    def to_csv(self) -> str:
        """Per-trial rows as a CSV table (stable column order)."""
        if not self.trials:
            return ""
        columns = list(self.trials[0].keys())
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for row in self.trials:
            writer.writerow(row)
        return buf.getvalue()


def run_gnp_triangle_experiment(
    n: int, p: float, trials: int, seed: int
) -> ExperimentReport:
    """Sample G(n, p) graphs and measure how often every vertex lies in a
    triangle (in which case any proper coloring is already dynamic).

    Each trial also greedily colors the sample and runs the triangle
    certificate end to end.  The analytic failure bound
    n * (1 - p^3)^((n-2)/2) is reported next to the empirical rate.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0.0 < p < 1.0:
        raise ValueError("need 0 < p < 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    records = []
    certified_count = 0
    for i in range(trials):
        trial_seed = derive_seed(seed, i)
        g = gnp(n, p, trial_seed)
        coloring = greedy_coloring(g)
        cert = triangle_certificate(g, coloring)
        certified_count += cert.certified
        records.append(
            {
                "trial": i,
                "seed": trial_seed,
                "covered_fraction": (n - len(cert.uncovered)) / n,
                "certified": cert.certified,
                "greedy_colors": coloring.palette_size,
            }
        )
    analytic_bound = n * (1 - p**3) ** ((n - 2) / 2)
    aggregates = {
        "certified_count": certified_count,
        "certified_rate": certified_count / trials,
        "mean_covered_fraction": sum(r["covered_fraction"] for r in records) / trials,
        "analytic_uncovered_bound": analytic_bound,
    }
    return ExperimentReport(
        name="gnp_triangles",
        parameters={"n": n, "p": p, "trials": trials},
        master_seed=seed,
        trials=tuple(records),
        aggregates=aggregates,
    )


def _sample_cubic_connected(n: int, seed: int) -> Optional[Graph]:
    for j in range(CUBIC_ATTEMPTS):
        g = random_regular(n, 3, derive_seed(seed, j))
        if is_connected(g):
            return g
    return None


def conjecture_scan(
    family: str,
    seed: int,
    budget: Optional[int] = None,
    max_n: int = 12,
    k: int = 3,
    n: Optional[int] = None,
    trials: int = 50,
) -> ExperimentReport:
    """Scan regular graphs for the gap chi_d - chi, flagging any gap > 2.

    Families: "all_cubic_connected" samples connected 3-regular graphs
    with even order up to ``max_n`` (seeded sampling deduplicated by exact
    edge set, not an isomorphism-free enumeration); "random_regular"
    samples k-regular graphs on n vertices.  A gap above 2 is only flagged
    after both witnesses are re-verified through the checkers, and the
    full instance is recorded for manual audit.
    """
    if family not in ("all_cubic_connected", "random_regular"):
        raise ValueError(f"unknown family {family!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    instances: list[tuple[int, Graph]] = []
    if family == "all_cubic_connected":
        if max_n < 4:
            raise ValueError("cubic graphs need n >= 4")
        orders = range(4, max_n + 1, 2)
        seen: set[tuple[tuple[int, int], ...]] = set()
        for i in range(trials):
            trial_seed = derive_seed(seed, i)
            order_n = orders[i % len(orders)]
            g = _sample_cubic_connected(order_n, trial_seed)
            if g is None:
                continue
            key = tuple(g.edges())
            if key in seen:
                continue
            seen.add(key)
            instances.append((trial_seed, g))
    else:
        if n is None:
            raise ValueError("random_regular family needs n")
        for i in range(trials):
            trial_seed = derive_seed(seed, i)
            instances.append((trial_seed, random_regular(n, k, trial_seed)))

    records = []
    counterexamples = []
    skipped = 0
    max_gap: Optional[int] = None
    for trial_seed, g in instances:
        chi_res = chromatic_number(g, budget)
        chid_res = dynamic_chromatic_number(g, budget)
        exhausted = chi_res.exhausted or chid_res.exhausted
        gap = None if exhausted else chid_res.value - chi_res.value
        records.append(
            {
                "seed": trial_seed,
                "n": g.n,
                "edges": g.edge_count,
                "chi": chi_res.value,
                "chi_d": chid_res.value,
                "gap": gap,
                "exhausted": exhausted,
            }
        )
        if exhausted:
            skipped += 1
            continue
        max_gap = gap if max_gap is None else max(max_gap, gap)
        if gap > 2:
            # Re-verify both witnesses before flagging anything this loud.
            proper_ok = not check_proper(g, chi_res.witness)
            dynamic_ok = not check_dynamic(g, chid_res.witness)
            if proper_ok and dynamic_ok:
                counterexamples.append(
                    {
                        "seed": trial_seed,
                        "edges": list(g.edges()),
                        "chi": chi_res.value,
                        "chi_d": chid_res.value,
                        "chi_witness": list(chi_res.witness.colors),
                        "chi_d_witness": list(chid_res.witness.colors),
                    }
                )
    aggregates = {
        "instances": len(records),
        "max_gap": max_gap,
        "counterexamples": counterexamples,
        "budget_skips": skipped,
    }
    parameters: dict = {"family": family, "trials": trials, "budget": budget}
    if family == "all_cubic_connected":
        parameters["max_n"] = max_n
    else:
        parameters.update({"k": k, "n": n})
    return ExperimentReport(
        name="conjecture_scan",
        parameters=parameters,
        master_seed=seed,
        trials=tuple(records),
        aggregates=aggregates,
    )

"""The benchmark's workloads: inputs made from the seed, and one pass over them.

A pass runs every input once, in a fixed order. The timed loop repeats
passes over the same inputs, so every pass must produce the same outputs,
and the n-th unit of one pass is the n-th unit of every other. A unit is
a campaign or a trial; it records its wall and CPU seconds, its ops'
latencies, and the reference kernel's time: the mean of one measurement
just before the unit and one just after it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

from mintplan import bnb, mip, rolling

from tracing import Tracer, patched

#: Synthetic campaigns per pass: seeds ``seed`` to ``seed + 4``.
CAMPAIGNS_PER_PASS = 5

#: Criterion-1 trials per pass, each a fresh 2x2 draw from the seed's stream.
ORACLE_TRIALS_PER_PASS = 36

_REFERENCE_ROWS = np.random.default_rng(0).random((24, 48))


def _reference_kernel() -> float:
    # Fixed interpreter and small-array work, like the simplex's inner
    # loop. Never change it: every timing is scaled by its speed.
    rows = _REFERENCE_ROWS.copy()
    total = 0.0
    for i in range(300):
        r = i % 24
        rows[r] -= rows[(r + 1) % 24] * 0.5
        total += float(rows[r, int(np.argmax(rows[r]))])
        total += sum({k: k * i for k in range(16)}.values()) * 1e-9
    return total


def reference_s() -> float:
    """Seconds the reference kernel takes right now: the fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def warm_up(seed: int) -> None:
    """One untimed solve, so lazy initialisation lands in set-up."""
    scenario, config = bnb.random_instance(np.random.default_rng([seed, 1]))
    bnb.solve_mip(mip.build(scenario, config))


class _Unit:
    """Times one unit: ``with _Unit(units) as unit: ... unit.ops.append(...)``."""

    def __init__(self, units: list):
        self.units = units
        self.ops: list[float] = []

    def __enter__(self):
        self.ref = reference_s()
        self.wall, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        wall, cpu = time.perf_counter() - self.wall, time.process_time() - self.cpu
        refs = (self.ref, reference_s())
        self.units.append({
            "start": self.wall, "wall": wall, "cpu": cpu, "ops": self.ops or [wall],
            "ref": sum(refs) / 2, "refs": refs,
        })


class Campaign:
    """Five synthetic 21-quarter campaigns, each replanned quarter by
    quarter with default settings and compared with its baseline. One op
    is one replan: the ``rolling`` -> ``solve_pipeline`` call."""

    def __init__(self, seed: int):
        self.seeds = tuple(range(seed, seed + CAMPAIGNS_PER_PASS))
        self.bundles = [rolling.generate_synthetic_scenario(s) for s in self.seeds]
        self.ops_per_pass = sum(len(b.history) for b in self.bundles)

    def run_pass(self, tracer: Tracer | None = None):
        """Returns ``[(seed, bundle, report, summary)]`` and one unit per campaign."""
        units: list[dict] = []
        current = None
        request = [None, 0]  # campaign seed, epoch
        solve = rolling.solve_pipeline

        def replan(*args, **kwargs):
            if tracer is not None:
                tracer.request = f"campaign{request[0]}.epoch{request[1]}"
            request[1] += 1
            start = time.perf_counter()
            try:
                return solve(*args, **kwargs)
            finally:
                current.ops.append(time.perf_counter() - start)

        outputs = []
        with patched(rolling, "solve_pipeline", replan):
            for s, b in zip(self.seeds, self.bundles):
                request[:] = [s, 0]
                if tracer is not None:
                    tracer.request = f"campaign{s}"
                with _Unit(units) as current, tracer.span("rolling") if tracer else nullcontext():
                    report = rolling.run_simulation(b.history, b.config, b.coin_specs, b.settings)
                    summary = rolling.compare(report, b.baseline_orders, b.config, b.coin_specs)
                outputs.append((s, b, report, summary))
        return outputs, units

    @staticmethod
    def digest(outputs) -> tuple:
        return tuple(
            (s, summary.model_total, summary.baseline_total, report.orders.tobytes(), report.infeasible_epochs)
            for s, _, report, summary in outputs
        )

    @staticmethod
    def failed(outputs) -> int:
        """Replans that produced no plan and fell back to a shortfall order."""
        return sum(len(report.infeasible_epochs) for _, _, report, _ in outputs)


class Oracle:
    """Criterion-1 trials: build a random 2x2 instance, solve it by
    branch and bound and by brute-force enumeration, as ``mintplan
    oracle`` does. One op, and one unit, is one trial."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.instances = [bnb.random_instance(rng) for _ in range(ORACLE_TRIALS_PER_PASS)]
        self.ops_per_pass = len(self.instances)

    def run_pass(self, tracer: Tracer | None = None):
        """Returns ``[(problem, solution, (oracle status, oracle objective))]``
        and one unit per trial."""
        units: list[dict] = []
        outputs = []
        for i, (scenario, config) in enumerate(self.instances):
            if tracer is not None:
                tracer.request = f"trial{i}"
            with _Unit(units):
                problem = mip.build(scenario, config)
                solution = bnb.solve_mip(problem)
                expected = bnb.exhaustive_objective(problem)
            outputs.append((problem, solution, expected))
        return outputs, units

    @staticmethod
    def digest(outputs) -> tuple:
        return tuple(
            (sol.status, repr(sol.objective), status, repr(objective))
            for _, sol, (status, objective) in outputs
        )

    @staticmethod
    def failed(outputs) -> int:
        return 0


WORKLOADS = {"campaign": Campaign, "oracle": Oracle}

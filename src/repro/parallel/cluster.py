"""Simulated multi-rank cluster driver for the scaling studies (Figs. 6-7).

The paper measures strong and weak scaling of one RELAX mirror-descent
iteration and of one ROUND selection on up to 12 A100 GPUs.  Without real
GPUs, this module reproduces the *shape* of those studies by:

1. executing the distributed solvers in-process over ``p`` simulated ranks,
2. taking the per-component compute time as the *maximum over ranks* of the
   measured per-rank CPU time (each rank only touches its own shard, so this
   is the time a real rank would spend computing),
3. adding the analytic communication time of the paper's cost model applied
   to the *recorded* collective traffic of the run, and
4. optionally reporting the fully analytic ("theoretical") series next to it.

Strong scaling keeps the global pool fixed while ``p`` grows; weak scaling
keeps the pool per rank fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.backend import COMPUTE_DTYPE, Array, get_backend
from repro.core.config import RelaxConfig, RoundConfig
from repro.fisher.operators import FisherDataset
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round
from repro.perfmodel.collectives import communication_time
from repro.perfmodel.machine import A100_MACHINE, MachineSpec
from repro.perfmodel.relax_model import relax_step_model
from repro.perfmodel.round_model import round_step_model
from repro.utils.validation import require

__all__ = ["ScalingMeasurement", "SimulatedCluster"]


@dataclass
class ScalingMeasurement:
    """One (step, rank-count) scaling data point.

    ``measured_compute`` are max-over-ranks seconds per component from the
    simulated run; ``modeled_communication`` applies the paper's collective
    cost model to the run's recorded traffic; ``theoretical`` is the fully
    analytic per-component estimate at A100 rates.
    """

    step: str
    num_ranks: int
    num_points: int
    measured_compute: Dict[str, float] = field(default_factory=dict)
    modeled_communication: float = 0.0
    theoretical: Dict[str, float] = field(default_factory=dict)

    def measured_total(self) -> float:
        return float(sum(self.measured_compute.values()) + self.modeled_communication)

    def theoretical_total(self) -> float:
        return float(self.theoretical.get("total", sum(self.theoretical.values())))

    def row(self) -> str:
        components = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.measured_compute.items()))
        return (
            f"{self.step:>5} p={self.num_ranks:<3d} n={self.num_points:<9d} "
            f"total={self.measured_total():.4f}s (comm={self.modeled_communication:.2e}s; {components})"
        )


class SimulatedCluster:
    """Run distributed RELAX/ROUND steps over in-process ranks.

    Parameters
    ----------
    machine:
        Machine model used to convert recorded communication traffic into
        seconds and to produce the theoretical series (defaults to the
        paper's A100 parameters).
    transport:
        Which transport the distributed solvers run over: ``"simulated"``
        (threads, default) or ``"shared_memory"`` (real spawned processes).
    """

    def __init__(self, machine: Optional[MachineSpec] = None, *, transport: str = "simulated"):
        self.machine = machine or A100_MACHINE
        self.transport = transport

    # ------------------------------------------------------------------ #
    def measure_relax_step(
        self,
        dataset: FisherDataset,
        budget: int,
        *,
        num_ranks: int,
        config: Optional[RelaxConfig] = None,
    ) -> ScalingMeasurement:
        """Time one mirror-descent iteration of the distributed RELAX solver."""

        cfg = config or RelaxConfig(max_iterations=1, track_objective="none")
        require(cfg.max_iterations == 1, "scaling measurements time a single iteration")
        result = distributed_relax(
            dataset, budget, num_ranks=num_ranks, config=cfg, transport=self.transport
        )
        compute = {name: float(vals.max()) for name, vals in result.per_rank_seconds.items()}
        comm = communication_time(self.machine, result.comm_log.as_dict(), num_ranks)
        theoretical = relax_step_model(
            self.machine,
            num_points=dataset.num_pool,
            dimension=dataset.dimension,
            num_classes=dataset.num_classes,
            num_probes=cfg.num_probes,
            cg_iterations=max(result.cg_iterations, 1),
            num_ranks=num_ranks,
        )
        return ScalingMeasurement(
            step="relax",
            num_ranks=num_ranks,
            num_points=dataset.num_pool,
            measured_compute=compute,
            modeled_communication=comm,
            theoretical=theoretical,
        )

    def measure_round_step(
        self,
        dataset: FisherDataset,
        z_relaxed: Array,
        *,
        eta: float,
        num_ranks: int,
        budget: int = 1,
        config: Optional[RoundConfig] = None,
    ) -> ScalingMeasurement:
        """Time the selection of ``budget`` points (per-point time is reported)."""

        result = distributed_round(
            dataset, z_relaxed, budget, eta_grid=(eta,), num_ranks=num_ranks, config=config,
            transport=self.transport,
        )
        compute = {
            name: float(vals.max()) / budget for name, vals in result.per_rank_seconds.items()
        }
        comm = communication_time(self.machine, result.comm_log.as_dict(), num_ranks) / budget
        theoretical = round_step_model(
            self.machine,
            num_points=dataset.num_pool,
            dimension=dataset.dimension,
            num_classes=dataset.num_classes,
            num_ranks=num_ranks,
        )
        return ScalingMeasurement(
            step="round",
            num_ranks=num_ranks,
            num_points=dataset.num_pool,
            measured_compute=compute,
            modeled_communication=comm,
            theoretical=theoretical,
        )

    # ------------------------------------------------------------------ #
    def strong_scaling(
        self,
        dataset_factory,
        rank_counts: Sequence[int],
        *,
        step: str,
        budget: int = 1,
        eta: float = 1.0,
        relax_config: Optional[RelaxConfig] = None,
    ):
        """Strong scaling: fixed global problem, increasing rank counts.

        ``dataset_factory()`` must return the (fixed) global
        :class:`FisherDataset`; a fresh instance is requested per rank count
        so mutation-free benchmarking is guaranteed.
        """

        require(step in ("relax", "round"), "step must be 'relax' or 'round'")
        measurements = []
        for p in rank_counts:
            dataset = dataset_factory()
            if step == "relax":
                measurements.append(
                    self.measure_relax_step(dataset, budget=max(budget, 1), num_ranks=p, config=relax_config)
                )
            else:
                z = get_backend().full(
                    (dataset.num_pool,), budget / dataset.num_pool, dtype=COMPUTE_DTYPE
                )
                measurements.append(
                    self.measure_round_step(dataset, z, eta=eta, num_ranks=p, budget=budget)
                )
        return measurements

    def weak_scaling(
        self,
        dataset_factory,
        rank_counts: Sequence[int],
        *,
        step: str,
        points_per_rank: int,
        budget: int = 1,
        eta: float = 1.0,
        relax_config: Optional[RelaxConfig] = None,
    ):
        """Weak scaling: the pool grows proportionally to the rank count.

        ``dataset_factory(total_points)`` must return a global dataset with
        the requested pool size.
        """

        require(step in ("relax", "round"), "step must be 'relax' or 'round'")
        require(points_per_rank > 0, "points_per_rank must be positive")
        measurements = []
        for p in rank_counts:
            dataset = dataset_factory(points_per_rank * p)
            if step == "relax":
                measurements.append(
                    self.measure_relax_step(dataset, budget=max(budget, 1), num_ranks=p, config=relax_config)
                )
            else:
                z = get_backend().full(
                    (dataset.num_pool,), budget / dataset.num_pool, dtype=COMPUTE_DTYPE
                )
                measurements.append(
                    self.measure_round_step(dataset, z, eta=eta, num_ranks=p, budget=budget)
                )
        return measurements

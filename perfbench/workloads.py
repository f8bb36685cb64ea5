"""The benchmark's workloads: which logs to generate and how to run them.

Each workload stresses different forgepulse layers; BENCHMARK.json records
why each one exists.  Every workload keeps ``include_merges`` false.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from gen import GeneratedLog, LogSpec, generate_log


@dataclass(frozen=True)
class Workload:
    name: str
    projects: tuple[tuple[str, LogSpec], ...]
    mode: str  # "pipeline": one run_pipeline call; "stages": the CLI chain
    biphase: bool = False
    parallel: bool = False  # workers = nproc instead of 1


# ~200k commits, 5k Pareto-skewed authors, a mild second growth episode.
LARGE_LOG = LogSpec(commits=200_000, authors=5000, episodes=((1.0, 80.0, 0.05), (0.5, 170.0, 0.08)))

# ~20k commits whose active-contributor count follows two clearly separated
# logistic episodes, so the bi-phase search has a real break to find.  The
# count carries 3% month-to-month noise, drawn from a generator of its own
# that the seed does not change: the search's Levenberg-Marquardt work
# swings by a quarter between differently noised curves, so every seed
# gets the same noisy curve.  Seeds still vary identities, commit times and
# merge placement.
BIPHASE_LOG = LogSpec(
    commits=20_000, authors=1500, active_noise=0.03, noise_seed=0,
    episodes=((1.0, 60.0, 0.12), (1.5, 170.0, 0.12)),
)

# Wide identity: ~35% provider addresses (one-person units), plus
# virtual-org and unclassifiable domains.
PORTFOLIO_LOG = LogSpec(
    commits=30_000,
    authors=3000,
    episodes=((1.0, 100.0, 0.06),),
    provider_share=0.35,
    virtual_org_share=0.08,
    unknown_share=0.05,
    no_at_share=0.005,
    corporate_domains=200,
)

STAGES_LOG = LogSpec(commits=100_000, authors=5000, episodes=((1.0, 90.0, 0.05), (0.4, 180.0, 0.1)))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("large_log", (("large", LARGE_LOG),), "pipeline"),
        Workload("biphase", (("biphase", BIPHASE_LOG),), "pipeline", biphase=True),
        Workload(
            "portfolio",
            tuple((f"proj{k}", PORTFOLIO_LOG) for k in range(6)),
            "pipeline",
            parallel=True,
        ),
        Workload("stages", (("stages", STAGES_LOG),), "stages"),
    )
}

STAGE_WINDOW = "last12"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers_for(workload: Workload) -> int:
    return nproc() if workload.parallel else 1


def generate_inputs(workload: Workload, seed: int, inputs_dir: Path) -> dict[str, GeneratedLog]:
    """Write every project log of ``workload`` for ``seed``."""
    return {
        name: generate_log(spec, seed, inputs_dir / f"{name}.log", stream=k)
        for k, (name, spec) in enumerate(workload.projects)
    }

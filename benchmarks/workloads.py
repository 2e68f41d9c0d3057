"""The four benchmark workloads: which CLI command, which generated config.

Each workload is chosen so that one layer dominates it and other layers
barely appear (see README.md).  The program only ever sees the generated
config; the benchmark seed is written into it.  The two matrix workloads are
checked against golden reports, which exist for config seeds
0 .. GOLDEN_SEEDS - 1, so for them the config seed is ``seed % GOLDEN_SEEDS``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

GOLDEN_SEEDS = 16
X_GRID = [-0.5, 0.0, 0.5]
SPECTRA = {"spectrum_M": "two_point", "spectrum_N": "uniform_grid"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    replicates: int  # replicates one invocation completes
    threads: Optional[int] = None  # --threads; None for mixing-curve
    config: dict = field(default_factory=dict)  # config body, without the seed
    flags: tuple = ()  # extra CLI flags for commands without a config
    golden: bool = False

    def config_seed(self, seed: int) -> int:
        return seed % GOLDEN_SEEDS if self.golden else seed % 2**32

    def cli_args(self, seed: int, workdir: Path, out_dir: Path) -> list[str]:
        """The haarconc command line for one invocation; writes the config."""
        cfg_seed = self.config_seed(seed)
        if not self.config:
            return [self.command, *self.flags, "--seed", str(cfg_seed), "--out", str(out_dir)]
        cfg_path = workdir / f"{self.name}-{cfg_seed}.json"
        cfg_path.write_text(json.dumps({**self.config, "seed": cfg_seed}))
        return [self.command, "--config", str(cfg_path), "--out", str(out_dir),
                "--threads", str(self.threads)]


MIXING_N = 32
MIXING_K_MAX = 128

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="un-scaling",
            command="scaling",
            replicates=4 * 500,
            threads=2,
            config={"kind": "scaling", "n_grid": [8, 16, 32, 64], "replicates": 500,
                    "x_grid": X_GRID, **SPECTRA},
            golden=True,
        ),
        Workload(
            name="un-step-check",
            command="matrix",
            replicates=500,
            threads=1,
            config={"kind": "matrix", "n": 64, "replicates": 500, "x_grid": X_GRID,
                    **SPECTRA, "step_check": True},
            golden=True,
        ),
        Workload(
            name="sn-exact",
            command="finite-group",
            replicates=10000,
            threads=1,
            config={"kind": "finite-group", "n": 7, "replicates": 10000},
        ),
        Workload(
            name="un-mixing",
            command="mixing-curve",
            replicates=4000,
            flags=("--group", "un", "--n", str(MIXING_N), "--k-max", str(MIXING_K_MAX),
                   "--replicates", "4000"),
        ),
    )
}

"""The benchmark's three fixed workloads.

Each workload is one `bernapprox` CLI call. The layers they stress differ on
purpose, so that an optimisation of one layer has a workload that exercises
it and one that bypasses it:

- bern-cusp-run: the conjugate tail curve (`tails`) and the Stieltjes sums
  (`bounds`) do most of the work; `operators` is about a tenth. An
  operator-kernel change should not move it.
- poisson-szasz-run: `operators` (`sup_error` over truncated Szasz sums, cost
  linear in n) is nearly all of it; the Poisson tail curve is closed form. A
  tail-tabulation change should not move it. Its certified bracket also shows
  the n-independent grid-slack floor.
- bern-square-bound: the `bound` table. `hdt_bound` queries Q at the adaptive
  points of `scipy.integrate.quad` and recomputes the same n-free integral for
  every n; it is the only workload on the Hoelder closed-form path.

The Monte Carlo operator path (run.mode=monte-carlo) has no workload: the
run time a benchmark of this size can spend is better given to longer runs
of the three above, whose medians are otherwise too noisy on a shared host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand: "run" or "bound"
    overrides: tuple[str, ...]  # --set key=value pairs on top of the defaults
    holder_alpha: float  # Hoelder exponent of the target function
    analytic: Optional[str] = None  # closed-form check of the empirical column

    @property
    def report(self) -> str:
        """The canonical JSON report the subcommand writes."""
        return "report.json" if self.command == "run" else "bound.json"

    @property
    def canonical_files(self) -> tuple[str, ...]:
        """Report files that must be byte-identical for equal seeds."""
        if self.command == "run":
            return ("report.json", "table.csv")
        return ("bound.json", "bound.csv")


_POISSON_EXP = ("family.kind=poisson", "function.name=exp-decay")

WORKLOADS: dict[str, Workload] = {
    "bern-cusp-run": Workload(
        "run",
        ("function.name=power-cusp", "function.alpha=0.5", "family.eps=0.05",
         "trial.x0=0.5", "trial.alpha=0.5"),
        holder_alpha=0.5,
    ),
    "poisson-szasz-run": Workload("run", _POISSON_EXP, holder_alpha=1.0, analytic="szasz-mgf"),
    "bern-square-bound": Workload("bound", (), holder_alpha=1.0, analytic="bernstein-variance"),
}

# Tiny grids for the smoke test: every layer still runs, in a few seconds.
SMOKE_OVERRIDES = (
    "run.n_grid=16,64",
    "grids.x_size=33",
    "grids.h_size=9",
    "grids.delta_size=9",
    "grids.z_size=33",
    "tail.lambda_size=101",
    "tail.n_max=1024",
)


def overrides(name: str, smoke: bool) -> tuple[str, ...]:
    return WORKLOADS[name].overrides + (SMOKE_OVERRIDES if smoke else ())


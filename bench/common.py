"""Workload definitions and package loading shared by the benchmark scripts.

Nothing here imports avgcons at module level: the package is loaded from
the checkout's own ``src`` by :func:`load_package`, which refuses to run
against any other copy, so a checkout without sources fails instead of
measuring an installed package.
"""
from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("graph", "protocol", "quantization", "sampling", "engine", "harness", "cli")
# Trace layers: one per module, plus the benchmark's own loop and oracle.
LAYERS = (*MODULES, "bench")


class PackageMissing(RuntimeError):
    pass


def load_package() -> dict:
    """Import every avgcons module from ROOT/src; return them by short name."""
    init = SRC / "avgcons" / "__init__.py"
    if not init.is_file():
        raise PackageMissing(f"no package sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("avgcons")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise PackageMissing(f"avgcons imported from {pkg.__file__}, not from the checkout")
    mods = {name: importlib.import_module(f"avgcons.{name}") for name in MODULES}
    mods["avgcons"] = pkg
    return mods


@dataclass(frozen=True)
class Workload:
    """One fixed trial config; only the master seed varies between runs.

    Every trial is trial_config, run_trial and evaluate_trial, and the
    run ends with one summary_from_records fold, as ``monte_carlo(jobs=1)``
    does for ``avgcons sweep`` (path "sweep").  Path "run" adds the JSONL
    trace dump of ``avgcons run``.
    count_trials is the trial prefix over which the traced run reports
    its exact counts, and the least number of trials a traced run makes.
    """

    name: str
    path: str
    protocol: str
    n: int
    epsilon: float
    eta: float
    schedule_kind: str = "csc"
    c: int | None = None
    size_bound: int | None = None
    s_max: int = 0
    t_max_rotations: int | None = None
    count_trials: int = 1

    def experiment(self, mods: dict, seed: int):
        """The ExperimentConfig of this workload under master seed `seed`."""
        sampling, harness = mods["sampling"], mods["harness"]
        t_max = None
        if self.t_max_rotations is not None:
            # Criterion-5 horizon: one full rotation past the ell*n bound.
            ell = sampling.params_rbar(self.epsilon, self.eta, 0.0, 1.0).ell
            t_max = ell * self.t_max_rotations
        return harness.ExperimentConfig(
            protocol=self.protocol,
            trials=1,
            n=self.n,
            seed=seed,
            epsilon=self.epsilon,
            eta=self.eta,
            size_bound=self.size_bound,
            schedule_kind=self.schedule_kind,
            c=self.c,
            s_max=self.s_max,
            t_max=t_max,
        )

    def stationary_bound(self, params) -> int | None:
        """Round from which r/rbar estimates must be settled, derived from
        the paper's bounds independently of harness.stationary_bound."""
        if self.protocol == "rbar":
            return params.ell * self.n  # csc: one rotation per hop
        if self.protocol == "r":
            return math.ceil(self.n / self.c)  # c_connected products
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rbar-long", "run", "rbar", n=6, epsilon=0.4, eta=0.4,
                 t_max_rotations=7, count_trials=2),
        Workload("rbard-wide", "sweep", "rbard", n=32, epsilon=0.4, eta=0.3,
                 size_bound=32, s_max=5, count_trials=4),
        Workload("cc-sweep", "sweep", "r", n=12, epsilon=0.3, eta=0.2,
                 schedule_kind="c_connected", c=2, count_trials=12),
    )
}

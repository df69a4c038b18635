"""The four benchmark workloads and the configs they hand to the CLI.

Each workload is one ``hermflow`` command on a config the benchmark writes
itself, so a later change to ``configs/`` cannot move the benchmark.  The
seed picks the sign of the initial tilt: the two mirror-image problems do
the same work step for step, so timings do not depend on the seed, and each
sign has its own reference output recorded at the seed commit.

Why these four:

* ``osc1d``: ``configs/oscillation.cfg`` with ``record_every = 1`` (the
  README default).  Python overhead sets the cost here and
  ``diagnostics.record`` is about 40 % of it: the workload for a faster
  ``record`` and for the telemetry budget.
* ``trap2d``: 2D at total degree 20 (231 modes, 1936 nodes).  Dense nodal
  transforms and ``assemble_mass`` set the cost, diagnostics are minor:
  the regime where sum-factorized 2D kernels must show.  The tilt is
  ``alpha = 0.2``; at ``alpha = 0.3123`` this degree passes the documented
  dt stall threshold (the step near t = 0.056 exits 2), so that tilt is
  not a benchmark input.
* ``sweep1d``: ``configs/sweep.cfg``, four continuation members.  The only
  workload with ``continuation``, nonzero drags and ``delta1 > 0``; it runs
  about 5.5 Picard sweeps per step against 3 on ``osc1d``.
* ``dilated1d``: ``configs/rescaled.cfg`` run to ``t_final = 2.0``.  The
  only workload through ``rescaled_step`` and the dilated energies, so a
  merge of that kernel into ``coupled_step`` cannot slow it unseen.

``verify`` is left out: it takes about 0.1 s, too short to time steadily,
and its work runs through the same ``calculus`` and ``diagnostics`` code.
"""

from __future__ import annotations

from dataclasses import dataclass

_TRAP = {"a": 1.0, "kappa": 1.0, "nu": 0.5, "lambda": 4.0}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str          # hermflow subcommand
    model: dict
    dim: int
    degree: int
    alpha: float       # tilt magnitude; the seed picks its sign
    dt: float
    t_final: float
    record_every: int | None = None
    n_list: tuple[int, ...] | None = None

    @property
    def steps(self) -> int:
        """Time steps one CLI run advances, summed over sweep members."""
        members = len(self.n_list) if self.n_list else 1
        return round(self.t_final / self.dt) * members

    @property
    def output_files(self) -> tuple[str, ...]:
        if self.mode == "sweep":
            return ("sweep_report.json",)
        return ("trajectory.csv", "summary.json")

    def config_text(self, variant: int) -> str:
        sign = 1.0 if variant == 0 else -1.0
        sections = {
            "model": dict(self.model),
            "frame": {"dim": self.dim, "degree": self.degree},
            "initial": {"family": "tilted", "alpha": repr(sign * self.alpha)},
            "time": {"dt": repr(self.dt), "t_final": repr(self.t_final)},
            "run": {"mode": self.mode},
        }
        if self.record_every is not None:
            sections["time"]["record_every"] = self.record_every
        if self.n_list is not None:
            sections["run"]["n_list"] = ", ".join(str(n) for n in self.n_list)
        lines = []
        for section, keys in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
            lines.append("")
        return "\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("osc1d", "simulate", _TRAP, dim=1, degree=24, alpha=0.3123,
                 dt=1e-3, t_final=1.571, record_every=1),
        Workload("trap2d", "simulate", _TRAP, dim=2, degree=20, alpha=0.2,
                 dt=1e-3, t_final=0.1, record_every=10),
        Workload("sweep1d", "sweep", {"a": 1.0, "kappa": 0.5, "nu": 0.5, "lambda": 100.0},
                 dim=1, degree=16, alpha=1.0, dt=2e-3, t_final=0.5, record_every=10,
                 n_list=(4, 8, 16, 32)),
        Workload("dilated1d", "rescaled", {"a": 1.0, "kappa": 1.0, "nu": 0.5, "lambda": 2.0},
                 dim=1, degree=16, alpha=0.3, dt=2e-3, t_final=2.0),
    )
}

VARIANTS = 2


def variant_of(seed: int) -> int:
    return seed % VARIANTS

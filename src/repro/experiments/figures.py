"""Reproduction entry points for every figure of Section 8 (and the
Section 3 simulation).

Each ``figNN`` function regenerates the data behind the corresponding
paper figure and returns a :class:`SweepResult`; ``trials=None`` uses
a scaled-down default (see :func:`repro.experiments.default_trials`),
and the paper's 1000-trial counts are restored with
``REPRO_TRIALS=1000``.

The paper's fault percentages are of the node count N; fault counts
are rounded to the nearest integer (e.g. 3% of 32768 -> 983, matching
the numbers quoted in the paper).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


from ..baselines.one_round import compare_one_vs_two_rounds
from ..core.bounds import (
    one_round_expected_lamb_lower_bound,
    partition_size_bound,
)
from ..core.lamb import LambResult
from ..core.reachability import bool_matmul, density
from ..mesh.geometry import Mesh
from .harness import SweepResult, TrialSeries, default_trials, lamb_trials

__all__ = [
    "PAPER_DENSITIES",
    "PERCENTS",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "section3_one_vs_two_rounds",
    "section62_densities",
]

#: The fault percentages used throughout Section 8.
PERCENTS: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

#: Bisection-width ratios of Figs. 21-22.
RATIOS: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def _faults_for_percent(mesh: Mesh, pct: float) -> int:
    return max(1, int(round(mesh.num_nodes * pct / 100.0)))


def _percent_sweep(
    figure: str,
    description: str,
    mesh: Mesh,
    trials: int,
    seed: int,
    tag: int,
) -> SweepResult:
    out = SweepResult(
        figure=figure,
        description=description,
        x_label="% faults",
        meta={"mesh": mesh.widths, "trials": trials},
    )
    for i, pct in enumerate(PERCENTS):
        f = _faults_for_percent(mesh, pct)
        series = lamb_trials(mesh, f, trials, seed=seed, tag=tag * 100 + i)
        series.x = pct
        out.series.append(series)
    return out


def fig17(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 17: avg & max #lambs vs fault % on the 32x32 2D mesh."""
    trials = default_trials(100) if trials is None else trials
    return _percent_sweep(
        "fig17", "lambs vs %faults, M2(32)", Mesh.square(2, 32), trials, seed, 17
    )


def fig18(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 18: avg & max #lambs vs fault % on the 32^3 3D mesh
    (paper: avg 67.6 lambs at 3% = 983 faults)."""
    trials = default_trials(10) if trials is None else trials
    return _percent_sweep(
        "fig18", "lambs vs %faults, M3(32)", Mesh.square(3, 32), trials, seed, 18
    )


def fig19(
    trials: Optional[int] = None,
    seed: int = 0,
    fig17_result: Optional[SweepResult] = None,
    fig18_result: Optional[SweepResult] = None,
) -> SweepResult:
    """Fig. 19: average additional damage (#lambs / #faults) vs fault
    percentage, 2D vs 3D.  Derived from the Fig. 17/18 sweeps."""
    r2d = fig17_result or fig17(trials, seed)
    r3d = fig18_result or fig18(trials, seed)
    t2, t3 = r2d.meta["trials"], r3d.meta["trials"]
    out = SweepResult(
        figure="fig19",
        description="additional damage (#lambs/#faults), 2D vs 3D",
        x_label="% faults",
        meta={
            "from": ("fig17", "fig18"),
            "trials": t2 if t2 == t3 else f"{t2} (2D), {t3} (3D)",
        },
    )
    mesh2, mesh3 = Mesh.square(2, 32), Mesh.square(3, 32)
    for pct, s2, s3 in zip(PERCENTS, r2d.series, r3d.series):
        f2 = _faults_for_percent(mesh2, pct)
        f3 = _faults_for_percent(mesh3, pct)
        series = TrialSeries(x=pct)
        series.add(
            damage_2d=s2.avg("lambs") / f2,
            damage_3d=s3.avg("lambs") / f3,
        )
        out.series.append(series)
    return out


def fig20(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 20: avg & max #lambs vs fault % on the 181x181 2D mesh
    (same node count as 32^3; the 2D lamb counts are much larger)."""
    trials = default_trials(10) if trials is None else trials
    return _percent_sweep(
        "fig20", "lambs vs %faults, M2(181)", Mesh.square(2, 181), trials, seed, 20
    )


def _ratio_sweep(
    figure: str, description: str, d: int, widths: Sequence[int],
    trials: int, seed: int, tag: int,
) -> SweepResult:
    out = SweepResult(
        figure=figure,
        description=description,
        x_label="faults / bisection width",
        meta={"d": d, "widths": tuple(widths), "trials": trials},
    )
    for i, ratio in enumerate(RATIOS):
        series = TrialSeries(x=ratio)
        for j, n in enumerate(widths):
            mesh = Mesh.square(d, n)
            f = max(1, int(round(ratio * mesh.bisection_width)))
            s = lamb_trials(mesh, f, trials, seed=seed, tag=tag * 1000 + i * 10 + j)
            series.add(**{f"lamb_pct_n{n}": 100.0 * s.avg("lambs") / mesh.num_nodes})
        out.series.append(series)
    return out


def fig21(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 21: avg lamb % of N vs faults/bisection-width, 2D meshes
    n = 32, 64, 128."""
    trials = default_trials(20) if trials is None else trials
    return _ratio_sweep(
        "fig21", "lamb%% vs f/bisection, 2D", 2, (32, 64, 128), trials, seed, 21
    )


def fig22(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 22: avg lamb % of N vs faults/bisection-width, 3D meshes
    n = 10, 16, 25."""
    trials = default_trials(5) if trials is None else trials
    return _ratio_sweep(
        "fig22", "lamb%% vs f/bisection, 3D", 3, (10, 16, 25), trials, seed, 22
    )


#: Mesh widths whose sizes are closest to 2^i, i = 10..15 (paper Figs. 23-24).
FIG23_WIDTHS: Sequence[int] = (32, 45, 64, 91, 128, 181)
FIG24_WIDTHS: Sequence[int] = (10, 13, 16, 20, 25, 32)


def _size_sweep(
    figure: str, description: str, d: int, widths: Sequence[int],
    trials: int, seed: int, tag: int, pct: float = 3.0,
) -> SweepResult:
    out = SweepResult(
        figure=figure,
        description=description,
        x_label="N (nodes)",
        meta={"d": d, "percent": pct, "trials": trials},
    )
    for i, n in enumerate(widths):
        mesh = Mesh.square(d, n)
        f = _faults_for_percent(mesh, pct)
        s = lamb_trials(mesh, f, trials, seed=seed, tag=tag * 100 + i)
        s.x = mesh.num_nodes
        s.values["lamb_pct"] = [
            100.0 * v / mesh.num_nodes for v in s.values["lambs"]
        ]
        out.series.append(s)
    return out


def fig23(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 23: avg lamb %% vs mesh size, 2D, 3%% random faults."""
    trials = default_trials(10) if trials is None else trials
    return _size_sweep(
        "fig23", "lamb%% vs N, 2D @3%% faults", 2, FIG23_WIDTHS, trials, seed, 23
    )


def fig24(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 24: avg lamb %% vs mesh size, 3D, 3%% random faults."""
    trials = default_trials(5) if trials is None else trials
    return _size_sweep(
        "fig24", "lamb%% vs N, 3D @3%% faults", 3, FIG24_WIDTHS, trials, seed, 24
    )


#: Section 6.2's matrix densities on M3(32) at 3% faults.
PAPER_DENSITIES = {"I1_density": 0.00987, "R1_density": 0.175,
                   "R1I1_density": 0.668}


def section62_densities(result: LambResult) -> Dict[str, float]:
    """The densities of ``R_1``, ``I_1`` and ``R_1 I_1`` for one lamb
    trial (Section 6.2).  Find-Reachability never forms ``R_1 I_1``, so
    it is multiplied out here, after the timed pipeline."""
    R1 = result.reach.round_matrices[0]
    I1 = result.reach.intersection_matrices[0]
    return {
        "R1_density": density(R1),
        "I1_density": density(I1),
        "R1I1_density": density(bool_matmul(R1, I1)),
    }


def fig25(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 25: avg & max #SES vs fault %% on M3(32), with the
    Theorem 6.4 bound B(d, f) for comparison, and the Section 6.2
    densities of ``R_1``, ``I_1`` and ``R_1 I_1`` per trial."""
    trials = default_trials(10) if trials is None else trials
    mesh = Mesh.square(3, 32)
    out = SweepResult(
        figure="fig25",
        description="#SES vs %faults on M3(32) + Theorem 6.4 bound",
        x_label="% faults",
        meta={"mesh": mesh.widths, "trials": trials},
    )
    for i, pct in enumerate(PERCENTS):
        f = _faults_for_percent(mesh, pct)
        s = lamb_trials(mesh, f, trials, seed=seed, tag=2500 + i,
                        extra=section62_densities)
        s.x = pct
        s.values["bound"] = [float(partition_size_bound(mesh.widths, f))]
        out.series.append(s)
    return out


def fig26(trials: Optional[int] = None, seed: int = 0) -> SweepResult:
    """Fig. 26: average running time of the lamb pipeline vs fault %%,
    on M3(32) and M2(181).  (Absolute values differ from the paper's
    133 MHz C implementation; the growth shape is the comparison.)"""
    trials = default_trials(3) if trials is None else trials
    out = SweepResult(
        figure="fig26",
        description="avg running time vs %faults, M3(32) and M2(181)",
        x_label="% faults",
        meta={"trials": trials},
    )
    m3, m2 = Mesh.square(3, 32), Mesh.square(2, 181)
    for i, pct in enumerate(PERCENTS):
        series = TrialSeries(x=pct)
        s3 = lamb_trials(m3, _faults_for_percent(m3, pct), trials,
                         seed=seed, tag=2600 + i)
        s2 = lamb_trials(m2, _faults_for_percent(m2, pct), trials,
                         seed=seed, tag=2650 + i)
        series.add(seconds_3d=s3.avg("seconds"), seconds_2d=s2.avg("seconds"))
        out.series.append(series)
    return out


def section3_one_vs_two_rounds(
    trials: Optional[int] = None, seed: int = 0, n: int = 32, f: int = 32
) -> SweepResult:
    """Section 3's simulation: f = 32 random faults on M3(32).

    Paper: the Theorem 3.1 bound gives E[lambs] >= 2698 for k = 1
    (simulation: ~5750), while with k = 2 only 5 of 10000 trials
    needed a single lamb."""
    trials = default_trials(10) if trials is None else trials
    rows = compare_one_vs_two_rounds(n, f, trials, seed=seed)
    out = SweepResult(
        figure="section3",
        description="one round vs two rounds of XYZ routing on M3(n)",
        x_label="f",
        meta={
            "n": n,
            "theorem31_bound": one_round_expected_lamb_lower_bound(n, f),
            "trials": trials,
        },
    )
    series = TrialSeries(x=f)
    for r in rows:
        series.add(lambs_k1=r.lambs_k1, lambs_k2=r.lambs_k2)
    out.series.append(series)
    return out

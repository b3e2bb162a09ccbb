"""Fig. 25: avg & max #SES vs fault percentage on M3(32), against the
Theorem 6.4 bound B(d, f).

Paper shape: the measured SES counts sit well below B(d, f), which in
turn is far below the loose (2d-1) f + 1 = 5f + 1.  Also reports the
matrix densities of Section 6.2 (I1 ~ 0.0099, R1 ~ 0.175,
R1·I1 ~ 0.668 at 3%).
"""

from repro.core import partition_size_bound_loose
from repro.experiments import default_trials, fig25, render_sweep
from repro.experiments.figures import _faults_for_percent
from repro.mesh import Mesh

from conftest import run_once


def test_fig25(benchmark, show):
    result = run_once(benchmark, fig25, trials=default_trials(3))
    show(render_sweep(result, keys=["num_ses", "bound", "I1_density",
                                    "R1_density", "R1I1_density"]))
    mesh = Mesh.square(3, 32)
    for s in result.series:
        f = _faults_for_percent(mesh, s.x)
        assert s.max("num_ses") <= s.values["bound"][0]
        assert s.values["bound"][0] <= partition_size_bound_loose(3, f)
    # At 3%: paper reports ~1800 average SES's vs bound 2007.
    last = result.series[-1]
    assert 1000 <= last.avg("num_ses") <= 2007
    # Paper: "the average number of SES's is very close to the average
    # number of DES's ... within 0.08%" (random faults are symmetric).
    for s in result.series:
        assert abs(s.avg("num_ses") - s.avg("num_des")) <= 0.02 * s.avg("num_ses")

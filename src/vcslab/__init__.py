"""Numerical verification laboratory for the solvable vector-coherent-state
classes of the 2D and 3D harmonic oscillator.

The registry enumerates every cataloged class; the norms, moments,
resolution, convergence, and taxonomy modules certify normalizability,
the moment identities behind the partial resolution of identity, the
convergence domains, and the classification structure.
"""

import os
import sys

# numpy's OpenBLAS starts a worker thread per extra CPU when numpy loads,
# and each one spins for tens of milliseconds of CPU before it sleeps.
# vcslab's matrices are at most 3x3, so the workers never pay for that.
# Once numpy is loaded its pool exists and the variable would only leak
# into child processes; a value the user set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .convergence import Verdict, class_verdict, gamma_ratio_surface
from .frequencies import FrequencyConfig
from .moments import (
    MeasureDensity,
    density_for,
    moment_integral,
    moment_target,
    verify_moments,
)
from .norms import (
    NormResult,
    TermGenerator,
    TruncatedState,
    norm_closed_form,
    norm_series,
    state,
    term_generator,
)
from .registry import get, ids, registry, select
from .report import VerificationReport
from .resolution import aliasing_solutions, resolution_residual, selection_rule
from .structure import ClassSpec, TowerTerm
from .taxonomy import (
    DeformationEdge,
    class_counts,
    deformation_graph,
    enumerate_subclasses,
    landau_map,
    verify_factor,
)

__version__ = "0.1.0"

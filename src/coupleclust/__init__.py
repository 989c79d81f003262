"""Couplings of probability margins and the graph criteria they induce.

Two canonical ways to couple a pair of discrete margins anchor everything
here: the independence coupling (product of margins, the maximum-entropy
choice) and the indetermination coupling (additive form, the minimum
squared deviation from uniform). The package provides

* exact constructors and cost functionals for both couplings, plus the
  iterative projections (iterative proportional fitting, Dykstra) that
  serve as independent numerical oracles for them
  (:mod:`coupleclust.coupling`, :mod:`coupleclust.solvers`);
* the Monge / log-Monge structure tests that characterize the two
  couplings row-by-row, with theorem cross-validation
  (:mod:`coupleclust.monge`);
* relational (pairwise-agreement) encodings of partitions and the
  agreement expectations a coupling induces
  (:mod:`coupleclust.relational`);
* weighted graphs viewed as joint distributions over node pairs: the two
  centered clustering criteria obtained by subtracting each coupling's
  null, their bias distributions on Gilbert random graphs, and greedy plus
  exhaustive partition search (:mod:`coupleclust.graph`,
  :mod:`coupleclust.louvain`);
* a ``coupleclust`` command-line tool wrapping all of the above with run
  manifests for provenance (:mod:`coupleclust.cli`).
"""

import sys as _sys

from .coupling import *
from .solvers import *
from .monge import *
from .relational import *
from .graph import *
from .louvain import *
from .data import *
from .errors import *

__version__ = "0.1.0"

# Each submodule lists its public names once, in its own ``__all__``.
__all__ = ["__version__"] + [
    name
    for sub in ("coupling", "solvers", "monge", "relational", "graph", "louvain", "data", "errors")
    for name in _sys.modules[f"{__name__}.{sub}"].__all__
]

"""curvelog: deformation parameters, Schottky normal forms, and
polylogarithm monodromy on degenerating families of algebraic curves.

The package is organized around three layers and a front end:

* exact algebra: truncated commutative series (:mod:`curvelog.cpseries`),
  polynomials in commuting symbols over period symbols
  (:mod:`curvelog.logpoly`), which share the exact term kernel of
  :mod:`curvelog.terms`, their no-symbol case, the exact combinations of
  pi-powers and multiple zeta values (:mod:`curvelog.constants`), and
  truncated noncommutative series over any of these coefficient rings
  (:mod:`curvelog.ncseries`);
* curve combinatorics and uniformization: stable graphs
  (:mod:`curvelog.stable_graph`) and their enumeration
  (:mod:`curvelog.catalog`), Moebius normal forms over deformation rings
  (:mod:`curvelog.schottky`), and the chart comparison for vertex
  expansion (:mod:`curvelog.chart_compare`);
* flat connections: polylogarithm and zeta-value numerics
  (:mod:`curvelog.polylog`), shuffle regularization of divergent words
  (:mod:`curvelog.regularize`), the Drinfeld associator and its ODE
  oracle (:mod:`curvelog.associator`), the degenerate elliptic frame
  (:mod:`curvelog.elliptic`), glued monodromy on stable curves
  (:mod:`curvelog.sheaf`), and transport sewn through a plumbing neck
  (:mod:`curvelog.sewing`);
* the command line (:mod:`curvelog.cli`), which reads and writes the
  canonical JSON of :mod:`curvelog.jsonio`.
"""

__version__ = "0.1.0"

"""curvelog: deformation parameters, Schottky normal forms, and
polylogarithm monodromy on degenerating families of algebraic curves.

The package is organized around three layers:

* exact algebra: truncated commutative series (:mod:`curvelog.cpseries`),
  truncated noncommutative series (:mod:`curvelog.ncseries`), and the
  symbolic constant ring of pi-powers and multiple zeta values
  (:mod:`curvelog.constants`);
* curve combinatorics and uniformization: stable graphs
  (:mod:`curvelog.stable_graph`), Moebius normal forms over deformation
  rings (:mod:`curvelog.schottky`), and the chart comparison for vertex
  expansion (:mod:`curvelog.chart_compare`);
* flat connections: polylogarithm series and numerics
  (:mod:`curvelog.polylog`), the Drinfeld associator and its ODE oracle
  (:mod:`curvelog.associator`), the degenerate elliptic frame
  (:mod:`curvelog.elliptic`), and glued monodromy on stable curves
  (:mod:`curvelog.sheaf`).
"""

__version__ = "0.1.0"

"""Exact symbolic engine for windowed infinite-rank cluster algebras.

Subsystems:

* :mod:`clusterqq.rootsys` — simply-laced root systems, Weyl groups,
  Coxeter elements with height functions and exponents.
* :mod:`clusterqq.quiver` — finite windows of the infinite quivers: the
  Coxeter window in closed form, mutation and slice bookkeeping.
* :mod:`clusterqq.seed` — seeds carrying g-vectors, c-vectors and optional
  series values; seed and reference mutation; green sweeps.
* :mod:`clusterqq.gvector` — stabilized g-vectors via slice blocks, the
  knitting recursion, and the braid-operator action.
* :mod:`clusterqq.qseries` — the truncated series ring of Ψ-monomials,
  Q-variables, renormalization, and QQ/QQ* certification.
* :mod:`clusterqq.sl2` — the rank-1 model: segments, the one Ptolemy
  relation of an ∞-gon quadrilateral, and unique factorization.
* :mod:`clusterqq.wronskian` — type-A quantum Wronskians over truncated
  series and double-Bruhat minor identities in exact integer arithmetic.
* :mod:`clusterqq.cli` — batch front-end emitting machine-readable
  certificates.
"""

__version__ = "0.1.0"

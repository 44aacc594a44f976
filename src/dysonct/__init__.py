"""Exact constant-term arithmetic and identity verification in q.

The package is organised bottom-up:

  qpoly       exact Laurent polynomials in q, cyclotomic products, quotients
  mpoly       sparse multivariate Laurent polynomials and kernel builders
  combi       permutations, compositions, pair sets, tournaments, matrices
  symfun      Schur and key polynomials, divided differences, scalar product
  interp      multivariate Lagrange interpolation and the bespoke grids
  identities  closed forms and brute-force verifiers for every identity
  cli         the batch verification harness (``dysonct`` entry point)

Every definition sits on a route that ``dysonct verify`` or ``dysonct ct``
runs, or is a boundary that the benchmark's tracer wraps; the slow
references and fixture builders that only the tests use live in
``tests/reference.py``.
"""

from .qpoly import IntPoly, QRat
from .mpoly import (
    Kernel, MPoly, VarTable, bg_alternating_kernel, bg_kernel, dyson_kernel,
    kernel_factors, table_kernel, table_tau, table_x, tau_kernel,
    tkernel, tournament_kernel, tzero_kernel,
)
from .combi import (
    Permutation, Tournament, ZeroOneMatrix, conjugate, ell_stats, is_strict,
    left_justified_from_rows, staircase,
)
from .symfun import (
    divided_difference, hook_content, isobaric_pi, isobaric_pihat, key_poly,
    keyhat_poly, scalar_product, schur_principal,
)
from .identities import (
    D_vlambda, c_w, poincare_W, rhs_bg_alternating,
    rhs_bg_general, rhs_kadell, rhs_kadell_t, rhs_lxz, rhs_poincare_qdyson,
    rhs_qdyson, rhs_sills, rhs_strict, rhs_tournament,
)
from .interp import (
    Grid, closed_eval, dyson_coeff_interpolated, dyson_grid, generic_coeff,
    sills_coeff_interpolated, sills_grid,
)

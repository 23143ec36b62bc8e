"""Taylor and Chebyshev series approximation of eigenvalue/eigenvector paths
lambda(mu), v(mu) of a parametric matrix A(mu), with Newton refinement,
Rayleigh-quotient correction, Monte-Carlo sampling, and error reporting.
"""

__version__ = "0.1.0"

from .analysis import (
    ErrorReport,
    SampleSet,
    bench_complexity,
    eigpath_eval,
    error_report,
    greedy_match,
    rayleigh_refine,
    sample_eigenvalues,
)
from .chebyshev import (
    cheb_expand_all,
    cheb_jacobian,
    cheb_residual,
    gauss_chebyshev_u,
    newton_refine,
    project_matrix_coeffs,
    warm_start,
)
from .errors import (
    ConfigError,
    DegenerateEvaluationError,
    DerivativeOrderError,
    DomainError,
    EigenPathError,
    EigenSolverError,
    ExpressionError,
    ExpressionSyntaxError,
    JacobianSingularError,
    NewtonDivergenceError,
    NonSimpleEigenvalueError,
    NumericalError,
    UnknownIdentifierError,
)
from .linalg import (
    BorderedSystem,
    EigenDecomposition,
    build_bordered,
    eigen_all,
    eigenvalues,
    solve_bordered,
    solve_bordered_reduced,
)
from .problems import (
    ParametricProblem,
    builtin_problem,
    jordan_eigenvalues,
    make_jordan,
    make_spring_chain,
    make_torus_kernel,
    pointwise,
    problem_from_config,
)
from .expressions import parse_expression, taylor_arith_eval
from .series import (
    EigenPairSeries,
    MatrixSeries,
    SeriesBasis,
    eigenpair_from_dict,
    eigenpair_to_dict,
    eval_cheb_u,
    eval_taylor,
    load_eigenpair,
    save_eigenpair,
    u_product_degrees,
)
from .taylor import (
    ExpansionFailure,
    expansion_failures,
    expansion_series,
    taylor_expand_all,
    taylor_rhs,
)

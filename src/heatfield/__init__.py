"""Split-complex heat algebra, branching Brownian motion, and its ladder equations.

The package has four layers:

* :mod:`heatfield.pring` -- arithmetic of the split-complex ring that
  carries heat/antiheat pairs;
* :mod:`heatfield.kernels` -- Gaussian transition densities, semigroup
  quadrature, the clocked retarded propagator, unitary time evolution;
* :mod:`heatfield.montecarlo` -- reproducible path sampling, Feynman-Kac
  estimation, and exact event-driven branching simulation;
* :mod:`heatfield.dyson` -- closed-form, ODE, Picard and forward-marched
  solutions of the one- and two-point ladder equations the simulator is
  checked against.

:mod:`heatfield.cli` wraps everything in a config-driven experiment
runner (``heatfield <subcommand> --config <file>``).
"""

from .pring import (
    I,
    ONE,
    SIGMA_MINUS,
    SIGMA_PLUS,
    ZERO,
    PseudoComplex,
    ZeroDivisorError,
)
from .kernels import (
    DimensionMismatchError,
    GridTooNarrowError,
    NonPositiveTimeError,
    SampledFunction,
    apply_semigroup,
    ck_residual,
    event_probability,
    heat_kernel,
    retarded_propagator_heat,
    time_evolution,
)
from .montecarlo import (
    BranchingConfig,
    EventLog,
    PopulationExplosionError,
    derive_stream,
    estimate_extinction,
    estimate_generating_function,
    estimate_mckean_product,
    feynman_kac_estimate,
    sample_brownian_path,
    sample_extinction_times,
    sample_lifetimes,
    simulate_branching,
)
from .dyson import (
    FertilityDistribution,
    SpaceTimeField,
    StabilityViolationError,
    extinction_probability,
    mass_curve,
    one_point_closed_form,
    one_point_ode,
    one_point_picard,
    two_point_picard,
    two_point_residual,
    two_point_shape,
)

__version__ = "0.4.0"

"""hyplab: exact desk-scale laboratory for short-interval arithmetic sums.

Library layout:

- :mod:`hyplab.specs`        function descriptors
- :mod:`hyplab.arith`        pointwise and windowed exact evaluation
- :mod:`hyplab.hooley`       divisor concentration (Delta functions)
- :mod:`hyplab.hyperbola`    the hyperbola identities and sawtooth sums
- :mod:`hyplab.expsum`       truncated Fourier diagnostics and proximity sums
- :mod:`hyplab.asymptotics`  main terms, envelopes, decomposition checks
- :mod:`hyplab.registry`     the worked-example registry
- :mod:`hyplab.cli`          the `hyplab` command line front end
"""

from .arith import (
    ValueTable,
    dirichlet_convolve_point,
    dirichlet_inverse_prefix,
    eratosthenes_transform,
    evaluate_point,
    short_sum_bruteforce,
    sieve_range,
    von_mangoldt_attached,
)
from .asymptotics import (
    ExperimentReport,
    HypothesisData,
    admissible_y_range,
    error_envelope,
    euler_product,
    hooley_mean_exponent,
    main_term,
    run_short_sum_experiment,
)
from .errors import (
    HyplabError,
    InvalidSpecError,
    PreconditionError,
    ResourceLimitError,
    SegmentCapError,
    WorkCapError,
)
from .expsum import (
    EnvelopeFit,
    psi_truncation_profile,
    tau_proximity_envelope_fit,
    tau_proximity_sum,
    truncated_fourier_split,
    truncated_psi,
)
from .hooley import (
    DeltaValue,
    delta_r,
    delta_r_grid_oracle,
    delta_short_sum,
    delta_weighted_prefix,
    divisors,
    dyadic_divisor_tau_sum,
    dyadic_tau_delta_check,
)
from .hyperbola import (
    HyperbolaDecomposition,
    long_hyperbola,
    nearest_int_dist,
    psi,
    sawtooth_block_sum,
    short_hyperbola,
)
from .registry import RegistryEntry, base_specs, default_entries, make_entry
from . import specs

__version__ = "0.1.0"

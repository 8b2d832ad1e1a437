"""besselwave: bounded Bessel-smoothed exterior calculus on discrete spectral domains.

The profile family phi_n turns the unbounded exterior derivative d into the
bounded operator d_t = t phi_{q+2}(tD) d on any domain with a symmetric
Dirac matrix D = d + d*.  The package builds such domains (circle, flat
tori, simplicial complexes), solves the two singular-acceleration wave
equations whose explicit solutions the deformation provides, verifies the
sphere/ball averaging identities behind sharp wave fronts with exact
rational arithmetic, and measures wave-front geometry (Jacobi fields,
front lengths, two-radius curvature estimates) on metric charts.
"""

from .besselfn import phi, phi_derivative, ode_residual, psi, series_coefficient
from .domains import (
    Cochain,
    ComplexClosureError,
    DomainSizeError,
    SimplicialComplex,
    SpectralDomain,
    build_circle_domain,
    build_simplicial_domain,
    build_torus_domain,
    domain_spectra_json,
    spectrum_by_degree,
)
from .specops import (
    SpectralGapError,
    SymmetryPreconditionError,
    WaveMapNormError,
    betti,
    betti_numbers,
    deformed_d,
    deformed_d_adjoint,
    deformed_dirac_norm,
    discrete_wave_orbit,
    functional_calculus,
    symmetry_commutator,
    torus_quarter_turn,
    torus_translation,
)
from .waveforms import (
    LaurentPoly,
    MonomialSourceCertificate,
    WaveSolution,
    bessel_acceleration,
    classical_wave,
    factorization_check,
    monomial_source_solution,
    pde_residual,
    position_solution,
    radial_acceleration,
    residual_step,
    velocity_solution,
)
from .polyforms import MultiPoly, PolyKForm, random_kform, random_multipoly
from .huygens import (
    LocalityProbeResult,
    PolarizationDegreeError,
    ball_average_exact,
    finite_difference_identity,
    flux_average_exact,
    flux_corollary_check,
    locality_probe,
    pizzetti_ball,
    pizzetti_constant,
    pizzetti_sphere,
    polarization_expand,
    polarization_normalization,
    polarization_reconstruct,
    sphere_average_exact,
    sphere_moment_ratio,
)
from .geomfront import (
    ChartDomainError,
    ChartExitError,
    LineIntegralResult,
    PositiveDefiniteError,
    SurfaceChart,
    WaveFront,
    chart_by_name,
    chart_from_expressions,
    christoffel,
    flat_chart,
    gauss_curvature_brioschi,
    geodesic,
    global_cancellation,
    hyperbolic_chart,
    jacobi_field,
    puiseux_curvature,
    r2d2_boundary,
    r2d2_curvature,
    sphere_chart,
    torus_chart,
    wavefront,
    wavefront_length,
    wavefront_line_integral,
)

__version__ = "0.1.0"

"""Time-of-arrival densities for relativistic particles tunneling through
piecewise-constant barriers, with the derived temporal observables (delay
time, tunneling time, resonances, escape rate) and closed-form regime
approximations, cross-validated against direct quadrature.

Natural units hbar = c = 1; momenta/energies in units of the particle mass,
lengths/times in 1/mass.
"""

from .errors import (
    AboveBarrierError,
    ConfigError,
    DelayUndefinedError,
    NumericsError,
    PhysicsDomainError,
    RegimeWarning,
    TotalReflectionError,
    TunnelKitError,
)
from .kinematics import (
    Kinematics,
    erfc_complex,
    matching_weight,
    relativistic_kinematics,
)
from .scattering import (
    BarrierFunctions,
    PotentialProfile,
    ScatteringData,
    barrier_functions,
    detection_coefficient,
    detection_phase_derivative,
    double_barrier_T,
    phase_split,
    piecewise_amplitudes,
    square_barrier_amplitudes,
    tunneling_window,
    unwrapped_transmission_phase,
)
from .wavepacket import (
    ArrivalDistribution,
    DetectorSpec,
    WavePacketSpec,
    arrival_amplitude,
    arrival_density,
    packet_momentum_amplitude,
    stationary_phase_time,
    total_transmission,
)
from .analysis import (
    ExponentialFit,
    RegimeReport,
    causality_mass,
    continuum_density,
    decay_rate,
    delay_time,
    detect_peaks,
    double_barrier_report,
    envelope_density,
    find_resonances,
    fit_exponential,
    lorentzian_detection_amplitude,
    multi_resonance_density,
    opaque_tunneling_time,
    peak_series_density,
    resonance_density,
    square_barrier_tunneling_time,
    tunneling_time,
)

__version__ = "0.1.0"

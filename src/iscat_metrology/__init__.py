"""Fisher-information bounds and shot-noise Monte Carlo for interferometric
scattering photometry, with reference-arm tuning for the two-arm setup."""

__version__ = "0.1.0"

from .field import (  # noqa: F401
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    detector_amplitude,
    load_config,
    save_config,
    scattered_amplitude,
    target_derivative,
    validate_energy,
)
from .fisher import (  # noqa: F401
    FisherReport,
    cfi_photon_number,
    fisher_report,
    qcrb,
    qfi_coherent,
    qfi_phase_averaged,
    relative_mass_bound,
)


def __getattr__(name):
    """Load ``tuner`` on first access to its exports (PEP 562), so that
    ``import iscat_metrology.cli`` does not load it for subcommands that
    never tune a reference arm."""
    if name in ("phase_solutions", "saturating_reference_set"):
        from . import tuner

        return getattr(tuner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

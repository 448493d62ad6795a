"""Fisher-information bounds and shot-noise Monte Carlo for interferometric
scattering photometry, with reference-arm tuning for the two-arm setup.

Each name is imported from the module that defines it: ``field``,
``fisher``, ``tuner``, ``snr``, ``photonstats``, ``spectrum``, ``textio``
or ``cli``."""

__version__ = "0.1.0"

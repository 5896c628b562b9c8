"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class AddressError(ReproError):
    """An address cannot be decoded or is outside the device capacity."""


class LayoutError(ReproError):
    """A data layout is invalid for the requested matrix geometry."""


class TraceError(ReproError):
    """An access trace is malformed (non-aligned, empty where forbidden, ...)."""


class SimulationError(ReproError):
    """The simulator was driven with inconsistent inputs."""


class FFTError(ReproError):
    """An FFT kernel was configured with an unsupported size or radix."""


class FaultError(ReproError):
    """A fault-injection plan is invalid or cannot be applied to a device."""


class SweepExecutionError(ReproError):
    """A sweep point failed in a worker (crash, timeout, or bad result).

    The resilient executor raises this for *infrastructure* problems
    (e.g. a submit to a closed worker pool); per-point worker failures
    are quarantined into the sweep result's ``failures`` section instead
    of aborting the grid.
    """


class AnalysisError(ReproError):
    """The static-analysis driver was misconfigured (unknown rule id,
    unreadable path, or a git query for ``--changed-only`` failed).

    Lint *findings* are not errors -- ``python -m repro lint`` reports
    them as diagnostics and exits 2; this exception covers problems with
    the lint invocation itself.
    """


class CacheCorruptionError(ReproError):
    """A result-cache entry failed digest or key verification.

    Normal cache reads treat corruption as a miss and self-heal; this is
    raised only by strict reads and :meth:`~repro.sweep.cache.ResultCache.scrub`
    reporting.
    """

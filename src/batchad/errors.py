"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad value, or an impossible combination."""


class BatchTooSmallError(ValueError):
    """Batch statistics requested on a batch with fewer than two rows."""


class UndefinedMetricError(ValueError):
    """Metric undefined for the given labels (e.g. AUROC with one class)."""


class DivergenceError(RuntimeError):
    """Training aborted after repeated non-finite losses."""

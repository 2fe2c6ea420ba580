"""Exception types shared across the solver modules."""


class QsmpError(Exception):
    """Base class for toolkit-specific failures."""


class SolverError(QsmpError):
    """A numerical solve aborted; ``step`` is the offending time-step index,
    and ``phase`` names the part of the run that failed where no step does."""

    def __init__(self, message, step=None, phase=None):
        where = phase if step is None else f"step {step}"
        super().__init__(message if where is None else f"{message} ({where})")
        self.reason, self.step = message, step


def located(fn, *args, step=None, phase=None):
    """``fn(*args)``, where a :class:`SolverError` that names no step (an
    expression coefficient that fails to evaluate) is raised again at
    ``step``, or in ``phase``."""
    try:
        return fn(*args)
    except SolverError as err:
        if err.step is not None:
            raise
        raise SolverError(err.reason, step=step, phase=phase) from None


class ExplosionError(SolverError):
    """A simulated state left the admissible range (blow-up guard)."""


class IllConditionedBasisError(QsmpError):
    """Regression features are rank deficient and no ridge was requested."""


class ConfigError(QsmpError):
    """An experiment configuration failed to parse or validate."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")

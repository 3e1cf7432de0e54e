"""Error taxonomy shared across the package.

Three failure families, mirrored by the CLI exit codes:

- :class:`ConfigError`        bad inputs / unknown keys / unit mistakes  (exit 1)
- :class:`InfeasibleError`    a solver proved there is no feasible point (exit 2)
- :class:`ResourceLimitError` a cap (APs, links, surface elements, time
                              bins per trace, time limit budget) was
                              exceeded                                   (exit 1)
"""


class OwcFogError(Exception):
    """Base class for package errors."""


class ConfigError(OwcFogError, ValueError):
    """Invalid configuration, argument, or geometry input."""


class InfeasibleError(OwcFogError):
    """No feasible solution exists; carries a machine-readable report.

    Attributes:
        report: dict describing the binding constraint(s); always JSON
            serializable so the CLI can emit it verbatim.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report if report is not None else {"message": message}


class ResourceLimitError(OwcFogError):
    """A configured resource cap would be exceeded (refuse, never truncate)."""

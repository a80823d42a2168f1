"""The exception types for input that chemfuse cannot use."""

import contextlib


class InputError(ValueError):
    """Input from outside the program that chemfuse cannot use. The CLI
    exits 1 on it, and 2 on any other exception, which is a chemfuse bug."""


class ConfigError(InputError):
    """A setting, a config file line or a value that cannot be used."""


def check_at_least(config, lowest: dict[str, int]) -> None:
    """Raise ConfigError for the first field of ``config`` that is not an
    integer (a bool is not one), or is below its entry in ``lowest``."""
    for name, bound in lowest.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < bound:
            raise ConfigError(f"{name} must be at least {bound}, got {value}")


@contextlib.contextmanager
def allocating(what: str):
    """Raise ConfigError when the arrays made inside, whose sizes settings
    chose, cannot be allocated: numpy raises MemoryError for a size the
    machine cannot hold and ValueError for one past its largest dimension."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"cannot allocate {what}: {exc}") from exc

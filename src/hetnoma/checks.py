"""The input rules; each raises ConfigError naming the field it checks."""

import math
from numbers import Real


class ConfigError(ValueError):
    """Invalid scenario input; `field` names the offending entry, `message` says why."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field
        self.message = message


def number(value, field, minimum=None, strict=False):
    # a float skips the slower isinstance check against the Real ABC
    if (type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real))
            or not math.isfinite(value)):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    value = float(value)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        bound = "greater than" if strict else "at least"
        raise ConfigError(field, f"must be {bound} {minimum}")
    return value


def integer(value, field, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(field, f"must be at least {minimum}")
    return value

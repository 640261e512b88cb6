"""The input rules; each raises ConfigError naming the field it checks."""

import math
from numbers import Integral, Real


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


def integer(value, field, minimum=None, below=None):
    # numpy integers are Integral; bool is too, but is no count or index.  An
    # int skips the slower isinstance check against the Integral ABC
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(field, f"must be at least {minimum}")
    if below is not None and value >= below:
        raise ConfigError(field, f"must be below {below}")
    return int(value)


def random_seed(value):
    """A random seed: an integer >= 0, or a nonempty tuple or list of them."""
    if isinstance(value, (tuple, list)) and value:
        return tuple([integer(entry, "seed", 0) for entry in value])
    return integer(value, "seed", 0)

"""Flat key=value experiment configuration with dotted section prefixes.

One assignment per line, ``#`` starts a comment, keys are validated against
the documented set, and a config plus a seed determines every output byte.
One reader, ``read``, parses and checks each key once, whether its value
came from a config line or a flag (the CLI's flags write the same keys, as
strings), with one of five parsers: integers against their lower bound,
finite floats, booleans, names against their options, and lists of any of
these, which may not be empty.  Every bad value raises ConfigError naming
its key.
"""

from __future__ import annotations

import math
from pathlib import Path

from .integrands import (Integrand, geometric_coefficients, make_additive,
                         make_product)
from .markov import (LINDLEY_A, LINDLEY_B, ChainModel, make_lindley,
                     modulated_uniform_increments, uniform_increments)


class ConfigError(ValueError):
    """Invalid configuration: unknown key, bad value, or missing requirement."""


KNOWN_KEYS = frozenset({
    "seed",
    "threads",
    "out",
    "methods",
    "reps",
    "eps",
    "d_grid",
    "mc_n",
    "fix_v",
    "fix_v_values",
    "pairs",
    "integrand.family",
    "integrand.d",
    "integrand.coeffs",
    "integrand.decay_r",
    "chain.preset",
    "chain.d",
    "chain.a",
    "chain.b",
    "chain.time_varying",
    "chain.gamma",
    "decay.i",
    "decay.n",
})

METHODS = ("mc", "mlmc", "mlmc-fixed")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a string map, validating key names."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"duplicate config key {key!r}")
        out[key] = checked_value(key, value)
    return out


def checked_value(key: str, value: str) -> str:
    """``value`` of ``key`` from a config line or a flag; blank is refused."""
    if not value.strip():
        raise ConfigError(f"config key {key!r} has an empty value")
    return value


def shown_path(path: str | Path) -> str:
    """``path`` for a one-line message: each character that is not printable
    (a line break, a NUL, an undecodable byte) is escaped as ``repr`` escapes
    it, and every printable one is kept as it is."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


def load_config(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"cannot read config file {shown_path(path)}: {reason}") from exc
    return parse_config_text(text)


def read(cfg: dict[str, str], key: str, parse, default=...):
    """``parse`` of the value of ``key``, or ``default`` when the key is not
    set (with no default the key is required); a ValueError or TypeError of
    ``parse`` is a ConfigError naming the key."""
    if key not in cfg:
        if default is ...:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return parse(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def integer(least=None):
    """A parser of decimal integers at least ``least``."""
    def parse(text: str) -> int:
        value = int(text)
        if least is not None and value < least:
            raise ValueError(f"expected at least {least}, got {value}")
        return value

    return parse


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def choice(options):
    """A parser of one of the names ``options``."""
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {sorted(options)}, got {text!r}")
        return text

    return parse


def items(parse):
    """A parser of comma-separated entries, each by ``parse``, as a tuple;
    blank entries are skipped, and a list with no entry is refused."""
    def parse_list(text: str) -> tuple:
        values = tuple(parse(p.strip()) for p in text.split(",") if p.strip())
        if not values:
            raise ValueError("empty list")
        return values

    return parse_list


def as_seed(cfg) -> int:
    """The ``seed`` key, default 0; seeds outside [0, 2**64) would alias."""
    seed = read(cfg, "seed", integer(), 0)
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed {seed}: must lie in [0, 2**64)")
    return seed


def tolerances_from_config(cfg: dict[str, str]) -> tuple[float, ...]:
    """The tolerances ``eps``: each, and its square, positive and finite."""
    eps_list = read(cfg, "eps", items(finite), (0.01,))
    if not all(0.0 < e and 0.0 < e * e < math.inf for e in eps_list):
        raise ConfigError("config key 'eps': tolerances and their squares must be "
                          "positive and finite")
    return eps_list


def fixed_point_from_config(cfg: dict[str, str]) -> tuple[str, tuple[float, ...] | None]:
    """The fixed-suffix mode ``fix_v`` and the explicit base point
    ``fix_v_values``, whose entries lie in [0, 1]; its length is checked
    against each cell's d."""
    mode = read(cfg, "fix_v", choice({"midpoint", "sample", "explicit"}), "midpoint")
    values = read(cfg, "fix_v_values", items(finite), None)
    if values is not None and not all(0.0 <= v <= 1.0 for v in values):
        raise ConfigError("config key 'fix_v_values': entries must lie in [0, 1]")
    return mode, values


def integrand_from_config(cfg: dict[str, str], d: int | None = None) -> Integrand:
    """Build the configured test-family integrand, optionally overriding d."""
    family = read(cfg, "integrand.family", choice({"additive", "product"}), "additive")
    if d is None:
        d = read(cfg, "integrand.d", integer(1))
    key = "integrand.coeffs"
    coeffs = read(cfg, key, items(finite), None)
    if coeffs is not None:
        if len(coeffs) != d:
            raise ConfigError(
                f"config key {key!r}: expected {d} entries, got {len(coeffs)}")
    else:
        key = "integrand.decay_r"
        coeffs = geometric_coefficients(d, read(cfg, key, finite, 0.5))
    maker = make_additive if family == "additive" else make_product
    try:
        return maker(coeffs)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def decay_from_config(cfg: dict[str, str], horizon: int) -> tuple[tuple[int, ...], int]:
    """Restart depths and coupled path count of the payoff-gap decay measurement."""
    i_values = read(cfg, "decay.i", items(integer()))
    n = read(cfg, "decay.n", integer(2), 10_000)
    if any(not 0 <= i <= horizon for i in i_values):
        raise ConfigError(f"config key 'decay.i': restart depths must lie in [0, {horizon}]")
    if len(set(i_values)) != len(i_values):
        raise ConfigError("config key 'decay.i': restart depths must not repeat")
    return i_values, n


def chain_from_config(cfg: dict[str, str]) -> tuple[ChainModel, float]:
    """Build the configured chain model and its decay exponent for scheduling."""
    read(cfg, "chain.preset", choice({"lindley"}), "lindley")
    d = read(cfg, "chain.d", integer(2))
    a = read(cfg, "chain.a", finite, LINDLEY_A)
    b = read(cfg, "chain.b", finite, LINDLEY_B)
    gamma = read(cfg, "chain.gamma", finite, -2.0)
    if not b > a:
        raise ConfigError("config keys 'chain.a'/'chain.b': need b > a")
    if gamma >= -1.0:
        raise ConfigError("config key 'chain.gamma': decay exponent must be below -1")
    if read(cfg, "chain.time_varying", boolean, False):
        zeta = modulated_uniform_increments(d, a, b)
    else:
        zeta = uniform_increments(a, b)
    return make_lindley(d, zeta), gamma

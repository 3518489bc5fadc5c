"""Configuration for the CLI: cache location, table and sweep limits, output.

Stored as a plain "key = value" text file.  Blank lines and lines starting
with "#" are ignored.  Unknown and repeated keys are rejected so that typos
and stale lines surface instead of silently deciding a setting.

The one home of the limit policy (the default limits, the fixed ceilings,
check_limit and its int check) for the engine and cli.  Imports nothing
from plethy, so loading the settings loads no engine.
"""

from __future__ import annotations

import os

DEFAULT_TABLE_LIMIT = 18
DEFAULT_THM1_N = 5
DEFAULT_THM1_D = 3
DEFAULT_LITTLEWOOD_SIZE = 8
DEFAULT_THM2_N = 4
DEFAULT_THM2_D = 3
DEFAULT_ORACLE_N = 3  # also a ceiling: the oracle's size is min(thm2_n, this)
MAX_QUOTIENT_D = 100_000  # quotient's output has d components, so d bounds its time and memory

OUTPUT_FORMATS = ("json", "csv")
_INT_KEYS = ("max_table_n", "thm1_n", "thm1_d", "littlewood_size", "thm2_n", "thm2_d")
_STR_KEYS = ("cache_path", "output_format")
_KEYS = ("cache_path", *_INT_KEYS, "output_format")  # the order of to_text


def _check_positive(name: str, value: int) -> None:
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def check_limit(name: str, value: int, limit: int) -> None:
    _check_positive(name, value)
    if type(limit) is not int:
        raise ValueError(f"the limit on {name} must be an integer, got {limit!r}")
    if value > limit:
        raise ValueError(f"{name} = {value} exceeds the limit {limit}")


def default_cache_path() -> str:
    # The XDG Base Directory spec makes a relative XDG_CACHE_HOME invalid: ignored, like an empty one.
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "plethy", "mn_cache.txt")


class Config:
    """The settings of one run."""

    def __init__(
        self,
        cache_path: str = "",
        max_table_n: int = DEFAULT_TABLE_LIMIT,
        thm1_n: int = DEFAULT_THM1_N,
        thm1_d: int = DEFAULT_THM1_D,
        littlewood_size: int = DEFAULT_LITTLEWOOD_SIZE,
        thm2_n: int = DEFAULT_THM2_N,
        thm2_d: int = DEFAULT_THM2_D,
        output_format: str = "json",
    ):
        self.cache_path = cache_path or default_cache_path()
        self.max_table_n = max_table_n
        self.thm1_n = thm1_n
        self.thm1_d = thm1_d
        self.littlewood_size = littlewood_size
        self.thm2_n = thm2_n
        self.thm2_d = thm2_d
        self.output_format = output_format
        self.validate()

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def validate(self) -> None:
        for name in _INT_KEYS:
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"config key {name} must be a positive integer, got {value!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"config key output_format must be one of {', '.join(OUTPUT_FORMATS)}, got {self.output_format!r}"
            )

    def to_text(self) -> str:
        return "".join(f"{name} = {getattr(self, name)}\n" for name in _KEYS)


def parse_config(text: str) -> Config:
    values: dict[str, object] = {}
    first_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key = key.strip()
        value = value.strip()
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"config key {key} given twice, on lines {first} and {lineno}")
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ValueError(f"config key {key} needs an integer, got {value!r}") from None
        elif key in _STR_KEYS:
            values[key] = value
        else:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
    return Config(**values)


def load_config(path: str) -> Config:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def save_config(config: Config, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config.to_text())

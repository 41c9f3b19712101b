"""Lazy package exports (PEP 562), shared by the package ``__init__`` files.

A package declares which submodule defines each public name; a name's
submodule is imported the first time the name is read, and the value is
then bound on the package so later reads are plain attribute lookups.
``import repro.service`` therefore loads the service and nothing it does
not use, while ``from repro.core import LDPJoinSketch``,
``from repro.core import *``, ``__all__`` and ``dir()`` see every export.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` of ``package``.

    ``table`` maps a submodule (relative to ``package``, e.g. ``".client"``)
    to the names it exports, in ``__all__`` order.  Reading any other
    attribute imports the submodule of that name (``repro.core`` after a
    bare ``import repro``) or raises :class:`AttributeError`.
    """
    origin = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        submodule = origin.get(name)
        if submodule is not None:
            value = getattr(import_module(submodule, package), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__

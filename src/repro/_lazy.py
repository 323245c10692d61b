"""Lazy package namespaces (PEP 562).

A package ``__init__`` names its public members in one table instead of
importing its subtree::

    from repro._lazy import attach

    __getattr__, __dir__ = attach(__name__, {
        "Machine": "repro.hw.platform",
        ...
    })

``from repro.hw import Machine`` then imports only ``repro.hw.platform``
(and what that module imports), on first use.  Any other attribute is
looked up as a submodule, so ``repro.hw.platform`` keeps working after a
bare ``import repro.hw``.  ``__all__`` stays a plain list in the package,
so ``from repro.hw import *`` resolves every member through the table.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def attach(
    package: str, members: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``members`` maps each public name to the module that defines it.  A
    resolved member is stored in the package's namespace, so the table is
    consulted once per name.
    """

    def __getattr__(name: str) -> object:
        module_name = members.get(name)
        if module_name is not None:
            value = getattr(importlib.import_module(module_name), name)
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(members))

    return __getattr__, __dir__

"""Decorator-based workload registry.

Workload classes self-register at import time via :func:`register_workload`
instead of being enumerated in a hand-maintained name table.  The registry
preserves registration order (which :mod:`repro.workloads` arranges to be
the paper's Table 1 order followed by the extension families), so
``all_workloads()`` and the campaign grid stay deterministic.

Lookups are case-insensitive; an unknown name raises
:class:`~repro.errors.WorkloadError` whose message enumerates every
registered name — the serving frontend forwards that message verbatim in
its 400 response so clients can self-correct.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.base import Workload

CATEGORIES = ("paper", "extension")

_REGISTRY: dict[str, type[Workload]] = {}
_CATEGORIES: dict[str, str] = {}


def register_workload(cls: type | None = None, *, category: str = "paper"):
    """Class decorator registering a :class:`Workload` under its ``name``.

    Usable bare (``@register_workload``) or with a category
    (``@register_workload(category="extension")``).  Registration is
    idempotent for the same class but rejects two distinct classes
    claiming one name.
    """

    def decorate(klass: type) -> type:
        if not (isinstance(klass, type) and issubclass(klass, Workload)):
            raise WorkloadError(
                f"@register_workload needs a Workload subclass, got {klass!r}"
            )
        if category not in CATEGORIES:
            raise WorkloadError(
                f"unknown workload category {category!r}; "
                f"expected one of {', '.join(CATEGORIES)}"
            )
        name = getattr(klass, "name", "")
        if not name:
            raise WorkloadError(
                f"workload class {klass.__name__} needs a non-empty `name`"
            )
        key = name.lower()
        if key in _REGISTRY and _REGISTRY[key] is not klass:
            raise WorkloadError(
                f"duplicate workload name {name!r}: "
                f"{_REGISTRY[key].__name__} is already registered"
            )
        _REGISTRY[key] = klass
        _CATEGORIES[key] = category
        return klass

    if cls is not None:
        return decorate(cls)
    return decorate


def workload_names() -> list[str]:
    """Registered names in registration order (paper six first)."""
    return [klass.name for klass in _REGISTRY.values()]


def workload_class(name: str) -> type[Workload]:
    """The class registered under ``name`` (case-insensitive); raises
    :class:`WorkloadError` listing every registered name when there is
    no match."""
    klass = _REGISTRY.get(str(name).lower())
    if klass is None:
        known = ", ".join(workload_names())
        raise WorkloadError(
            f"unknown workload {name!r}; registered: {known}"
        )
    return klass


def workload_by_name(name: str) -> Workload:
    """Instantiate the workload registered under ``name`` (see
    :func:`workload_class`)."""
    return workload_class(name)()


def all_workloads() -> list[Workload]:
    """One instance of each of the paper's six applications."""
    return _instances("paper")


def extension_workloads() -> list[Workload]:
    """One instance of each workload beyond the paper's six."""
    return _instances("extension")


def _instances(category: str) -> list[Workload]:
    return [
        klass()
        for key, klass in _REGISTRY.items()
        if _CATEGORIES[key] == category
    ]

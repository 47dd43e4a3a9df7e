"""Pluggable component registries: the backbone of the Scenario API.

Every interchangeable piece of the reproduction — priors, estimators,
datasets, topologies and experiment drivers — is registered here under a
short name, so that scenarios, the CLI and future extensions can compose them
by name instead of hard-wiring imports:

    from repro.registry import register_prior

    @register_prior("my_prior", description="...")
    def build_my_prior(context):
        ...

Names are canonicalised (lower-case, dashes and spaces become underscores),
so ``"stable-fP"``, ``"Stable FP"`` and ``"stable_fp"`` all resolve to the
same entry.  Registering the same name twice raises
:class:`repro.errors.RegistryError` unless ``overwrite=True`` is passed;
looking up an unknown name raises it too, with the registered choices named
in the message.

The registries are populated as a side effect of importing the modules that
define the components (``repro.core.priors`` registers the priors, and so
on).  Lookups call :func:`ensure_populated` first, which imports the known
component modules, so ``PRIORS.names()`` is complete even when only this
module has been imported.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.errors import RegistryError

__all__ = [
    "Registry",
    "RegistryEntry",
    "canonical_name",
    "ensure_populated",
    "PRIORS",
    "ESTIMATORS",
    "DATASETS",
    "TOPOLOGIES",
    "EXPERIMENTS_REGISTRY",
    "REGISTRIES",
    "register_prior",
    "register_estimator",
    "register_dataset",
    "register_topology",
    "register_experiment",
]


def canonical_name(name: str) -> str:
    """Canonical registry key for ``name`` (lower-case, ``_`` separators)."""
    if not isinstance(name, str) or not name.strip():
        raise RegistryError("component names must be non-empty strings")
    return name.strip().lower().replace("-", "_").replace(" ", "_")


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: the object plus its lookup metadata."""

    name: str
    obj: Any
    description: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)


class Registry:
    """A name → component mapping with decorator-style registration.

    Parameters
    ----------
    kind, plural:
        Singular and plural nouns for the component type, used in error
        messages (``"unknown prior ...; registered priors: ..."``).
    """

    def __init__(self, kind: str, plural: str | None = None):
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self._entries: dict[str, RegistryEntry] = {}

    def register(
        self,
        name: str,
        obj: Any = None,
        *,
        description: str = "",
        metadata: Mapping[str, Any] | None = None,
        overwrite: bool = False,
    ) -> Callable[[Any], Any] | Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        With ``obj`` omitted, returns a decorator::

            @PRIORS.register("stable_fp", description="...")
            def build(...): ...

        When no ``description`` is given, the first line of the object's
        docstring is used.
        """

        def decorate(target: Any) -> Any:
            key = canonical_name(name)
            if key in self._entries and not overwrite:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            text = description
            if not text:
                doc = getattr(target, "__doc__", None) or ""
                text = doc.strip().splitlines()[0] if doc.strip() else ""
            self._entries[key] = RegistryEntry(
                name=key, obj=target, description=text, metadata=dict(metadata or {})
            )
            return target

        if obj is None:
            return decorate
        return decorate(obj)

    def unregister(self, name: str) -> None:
        """Remove a registered component (raises if the name is unknown)."""
        key = canonical_name(name)
        if key not in self._entries:
            raise RegistryError(f"cannot unregister unknown {self.kind} {name!r}")
        del self._entries[key]

    def entry(self, name: str) -> RegistryEntry:
        """The full :class:`RegistryEntry` for ``name`` (raises if unknown)."""
        ensure_populated()
        key = canonical_name(name)
        if key not in self._entries:
            choices = ", ".join(sorted(self._entries)) or "(none)"
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: {choices}"
            )
        return self._entries[key]

    def get(self, name: str) -> Any:
        """The registered object for ``name`` (raises if unknown)."""
        return self.entry(name).obj

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        ensure_populated()
        return tuple(sorted(self._entries))

    def entries(self) -> tuple[RegistryEntry, ...]:
        """All entries, sorted by name."""
        ensure_populated()
        return tuple(self._entries[name] for name in sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        ensure_populated()
        try:
            return canonical_name(name) in self._entries  # type: ignore[arg-type]
        except RegistryError:
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        ensure_populated()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, entries={list(self._entries)})"


PRIORS = Registry("prior")
ESTIMATORS = Registry("estimator")
DATASETS = Registry("dataset")
TOPOLOGIES = Registry("topology", "topologies")
EXPERIMENTS_REGISTRY = Registry("experiment")

#: Registries by their plural name, as surfaced by ``repro list <kind>``.
REGISTRIES: dict[str, Registry] = {
    "priors": PRIORS,
    "estimators": ESTIMATORS,
    "datasets": DATASETS,
    "topologies": TOPOLOGIES,
    "experiments": EXPERIMENTS_REGISTRY,
}

register_prior = PRIORS.register
register_estimator = ESTIMATORS.register
register_dataset = DATASETS.register
register_topology = TOPOLOGIES.register
register_experiment = EXPERIMENTS_REGISTRY.register

# Modules whose import populates the registries.  Kept here (rather than in
# each registry) so a lookup against any registry pulls in the whole set.
_COMPONENT_MODULES: tuple[str, ...] = (
    "repro.core.priors",
    "repro.estimation.pipeline",
    "repro.synthesis.datasets",
    "repro.topology.library",
    "repro.experiments",
)

_populated = False
_populating = False


def ensure_populated() -> None:
    """Import every known component module so the registries are complete.

    Idempotent and re-entrant: an in-progress flag stops component modules
    that perform lookups while they are being imported from recursing, while
    the done flag is only set once every import succeeded — a failed import
    propagates and the next lookup retries instead of silently serving
    half-empty registries.
    """
    global _populated, _populating
    if _populated or _populating:
        return
    _populating = True
    try:
        for module in _COMPONENT_MODULES:
            importlib.import_module(module)
        _populated = True
    finally:
        _populating = False

"""The unified metrics registry.

One :class:`MetricsRegistry` gives every layer of the solver a single,
namespaced counter surface.  Hot loops (the CDCL inner loop, congruence
closure) keep their plain ``dict`` counters — wrapping every increment
in an object call would tax the hottest paths.  Instead the registry
*absorbs* those surfaces as **sources**:
:meth:`MetricsRegistry.register_source` takes a namespace and a
zero-argument supplier returning a mapping, and every
:meth:`~MetricsRegistry.snapshot` folds the supplier's entries in under
``<namespace>.<key>``.  This is how ``SatSolver.stats`` (``sat.*``),
per-plugin ``Theory.stats`` (``theory.euf.*``, ``theory.arith.*``),
the engine's own counters (``engine.*``) and
:func:`repro.smtlib.terms.intern_stats` (``intern.*``) unify behind one
API without touching their increment sites.

A source names the keys that are **gauges** — point-in-time levels
(``learned_db``, intern-table ``live`` nodes) rather than monotonic
counters.  Snapshots are plain ``dict[str, int]`` and therefore
JSON-ready; :meth:`MetricsRegistry.delta` subtracts a snapshot from the
current one counter-wise while letting gauge keys keep their current
value — the engine's per-``check-sat`` ``metrics`` are exactly such a
delta.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping


class MetricsRegistry:
    """Namespaced stat sources behind one snapshot/delta API.

    Sources are registered per namespace and may be re-registered (the
    engine re-binds its solver source on every reset) or dropped by
    prefix (the engine drops last check's theory plugins).
    """

    def __init__(self) -> None:
        self._sources: dict[
            str, tuple[Callable[[], Mapping[str, int]], frozenset[str]]
        ] = {}

    def register_source(
        self,
        namespace: str,
        supplier: Callable[[], Mapping[str, int]],
        gauges: Iterable[str] = (),
    ) -> None:
        """Absorb an external stats mapping under ``<namespace>.<key>``.

        ``gauges`` names the supplier keys that are levels rather than
        monotonic counters (they survive :meth:`delta` untouched).
        Re-registering a namespace replaces its supplier.
        """
        self._sources[namespace] = (supplier, frozenset(gauges))

    def unregister_prefix(self, prefix: str) -> None:
        """Drop every source whose namespace starts with ``prefix``."""
        for namespace in [ns for ns in self._sources if ns.startswith(prefix)]:
            del self._sources[namespace]

    def snapshot(self) -> dict[str, int]:
        """Flatten every source into one ``name -> value`` mapping."""
        out: dict[str, int] = {}
        for namespace, (supplier, _) in self._sources.items():
            for key, value in supplier().items():
                out[f"{namespace}.{key}"] = value
        return out

    def gauge_keys(self) -> frozenset[str]:
        """Snapshot keys whose values are levels, not counters."""
        return frozenset(
            f"{namespace}.{key}"
            for namespace, (_, gauges) in self._sources.items()
            for key in gauges
        )

    def delta(self, before: Mapping[str, int]) -> dict[str, int]:
        """A fresh snapshot minus ``before``, per key.  Keys absent from
        ``before`` count from zero, and gauge keys keep their current
        value (levels do not subtract meaningfully)."""
        absolute = self.gauge_keys()
        return {
            key: value if key in absolute else value - before.get(key, 0)
            for key, value in self.snapshot().items()
        }


__all__ = ["MetricsRegistry"]

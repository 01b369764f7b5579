"""The `Recoverable` protocol: what a journal-backed component promises.

Three hosts implement it — the
:class:`~repro.container.container.ServiceContainer`, the
:class:`~repro.workflow.wms.WorkflowManagementService` and the batch
:class:`~repro.batch.cluster.Cluster` — each by delegating to the
:class:`~repro.durability.spine.StateSpine` it owns; the record
vocabularies and their replay belong to the planes registered with that
spine. This protocol pins down the shared lifecycle so chaos controllers
and operators can treat the hosts uniformly:

- construction with a ``journal_dir`` that has history *is* recovery —
  the component rebuilds its externally promised state before serving;
- :meth:`crash` models a cold stop: the journal stops persisting first,
  then the component is torn down without the courtesies of a graceful
  shutdown (nothing gets marked, flushed or drained on the way out);
- :meth:`compact` snapshots current state and truncates the journal, so
  recovery cost tracks live state rather than history length.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.durability.journal import Journal


@runtime_checkable
class Recoverable(Protocol):
    """A component whose externally promised state survives cold restarts."""

    #: The component's write-ahead journal (``None`` when running volatile).
    journal: "Journal | None"

    def crash(self) -> None:
        """Simulate a cold stop: stop persisting, then tear down."""
        ...

    def compact(self) -> None:
        """Snapshot live state into the journal and drop covered segments."""
        ...

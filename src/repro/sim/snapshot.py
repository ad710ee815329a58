"""Deterministic simulator checkpoint/restore.

A :class:`SimSnapshot` freezes a :class:`~repro.sim.kernel.Simulator`
at a cycle boundary: the cycle counter, every wire's register state,
every component's internal registers, the fast-path scheduler's wake
set and hot-wire list, and the process-global id counters (transaction
and packet ids) whose values leak into in-flight state.  Restoring a
snapshot into a *structurally identical* simulator -- the same one, or
one rebuilt by re-running the original construction code, possibly in a
different process -- and stepping on is cycle-identical to a run that
was never interrupted: the differential tests in
``tests/test_snapshot.py`` assert digest equality under both scheduling
modes and with active fault campaigns.

Serialization format (versioned, integrity-checked)
---------------------------------------------------
State is pickled with a custom pickler that writes references to
kernel-owned objects (wires, components, the simulator itself) as
*symbolic* persistent ids resolved by name at load time.  Component
state may therefore freely reference channels, ports and sibling
components: in the restoring process those references re-attach to the
freshly built objects of the same name instead of smuggling in copies.
On disk a snapshot is ``MAGIC | version | sha256(payload) | payload``;
truncated or corrupted files raise :class:`SnapshotError` instead of
restoring garbage.

What is *not* captured -- by design -- is structure and plumbing:
component/wire registration, probe and watcher callbacks, tracers, and
telemetry collectors.  The restore workflow is always "rebuild the
machine, then load its registers": re-run the code that built the
original simulator (builder, fault injector, traffic population), call
:meth:`~repro.sim.kernel.Simulator.restore`, then re-attach any
monitors.  See ``docs/CHECKPOINT.md`` for the full contract.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.channel import Wire
from repro.sim.kernel import SimulationError, Simulator

#: Bumped whenever the on-disk layout or the captured state set changes
#: incompatibly; load() refuses snapshots from versions it cannot read.
#: v2 added the optional ``batch`` container (replica-lane checkpoints,
#: see ``repro.sim.batch``); v1 files still load, as v2 with no batch.
SNAPSHOT_VERSION = 2

#: Versions load() accepts: v1 files are plain v2 files without a batch
#: container, so reading them stays lossless.
_READABLE_VERSIONS = frozenset({1, SNAPSHOT_VERSION})

#: File header for snapshot files ("xpipes lite checkpoint").
_MAGIC = b"XLCKPT01"


class SnapshotError(SimulationError):
    """Raised for unusable snapshots: corrupt files, version skew, or
    restore targets whose structure does not match the captured one."""


def _structure_of(sim: Simulator) -> Dict[str, Any]:
    """A comparable description of the simulator's static structure."""
    return {
        "components": sorted(
            (c.name, type(c).__qualname__) for c in sim._components
        ),
        "wires": sorted(w.name for w in sim._wires),
        "sleepy": sorted(c.name for c in sim._sleepy),
    }


class _StatePickler(pickle.Pickler):
    """Pickles state dicts, writing kernel objects as symbolic refs."""

    def __init__(self, stream: io.BytesIO, sim: Simulator) -> None:
        super().__init__(stream, protocol=pickle.HIGHEST_PROTOCOL)
        self._sim = sim
        self._wire_ids = {id(w): w.name for w in sim._wires}
        self._comp_ids = {id(c): c.name for c in sim._components}

    def persistent_id(self, obj: Any):
        if isinstance(obj, Wire):
            name = self._wire_ids.get(id(obj))
            if name is not None:
                return ("wire", name)
        elif obj is self._sim:
            return ("simulator",)
        else:
            name = self._comp_ids.get(id(obj))
            if name is not None and obj is self._sim._component_names.get(name):
                return ("component", name)
        return None


class _StateUnpickler(pickle.Unpickler):
    """Resolves symbolic kernel references against the restoring sim."""

    def __init__(self, stream: io.BytesIO, sim: Simulator) -> None:
        super().__init__(stream)
        self._sim = sim

    def persistent_load(self, pid: Tuple):
        kind = pid[0]
        if kind == "wire":
            wire = self._sim._wire_names.get(pid[1])
            if wire is None:
                raise SnapshotError(
                    f"snapshot references wire {pid[1]!r}, which the "
                    f"restoring simulator does not have"
                )
            return wire
        if kind == "component":
            comp = self._sim._component_names.get(pid[1])
            if comp is None:
                raise SnapshotError(
                    f"snapshot references component {pid[1]!r}, which the "
                    f"restoring simulator does not have"
                )
            return comp
        if kind == "simulator":
            return self._sim
        raise SnapshotError(f"unknown persistent reference kind {kind!r}")


@dataclass
class SimSnapshot:
    """One frozen simulator state, ready to serialize.

    ``payload`` is the custom-pickled state blob (see module docstring);
    the remaining fields are plain metadata so tooling can inspect a
    snapshot -- which cycle it froze, under which library version, with
    what structure -- without unpickling anything.
    """

    version: int
    repro_version: str
    cycle: int
    fast_path: bool
    structure: Dict[str, Any]
    payload: bytes
    #: Scheduler mode the capture ran under (one of
    #: :data:`~repro.sim.kernel.KERNEL_MODES`).  Metadata only: restore
    #: is kernel-agnostic and keeps the *target* simulator's mode.  The
    #: default covers snapshots written before the field existed, derived
    #: from ``fast_path`` (which is retained for exactly that purpose).
    kernel: str = "fast"
    #: Replica-batch container (format v2+): ``None`` for a scalar
    #: snapshot; for a batch checkpoint, a plain dict carrying the
    #: batch-level facts (``replicas``, ``lane``, ``seed_stride``) plus
    #: the finished lanes' results (``lane_results``), with the regular
    #: payload holding the in-flight lane's state.  See
    #: :class:`repro.sim.batch.BatchSimulator` and docs/BATCHING.md.
    batch: Optional[Dict[str, Any]] = None

    def save(self, path: str) -> None:
        """Write ``MAGIC | version | sha256 | envelope`` atomically-ish."""
        body = pickle.dumps(
            {
                "version": self.version,
                "repro_version": self.repro_version,
                "cycle": self.cycle,
                "fast_path": self.fast_path,
                "kernel": self.kernel,
                "structure": self.structure,
                "payload": self.payload,
                "batch": self.batch,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        import os
        import tempfile

        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(_MAGIC)
                f.write(SNAPSHOT_VERSION.to_bytes(4, "big"))
                f.write(hashlib.sha256(body).digest())
                f.write(body)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "SimSnapshot":
        """Read and verify a snapshot file.

        Raises :class:`SnapshotError` on wrong magic, version skew,
        truncation, or checksum mismatch -- a half-written checkpoint
        (the process died mid-save) must never restore silently.
        """
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
        if len(raw) < len(_MAGIC) + 4 + 32:
            raise SnapshotError(f"snapshot {path!r} is truncated")
        if raw[: len(_MAGIC)] != _MAGIC:
            raise SnapshotError(f"{path!r} is not a simulator snapshot")
        off = len(_MAGIC)
        version = int.from_bytes(raw[off : off + 4], "big")
        if version not in _READABLE_VERSIONS:
            raise SnapshotError(
                f"snapshot {path!r} is format v{version}; this library "
                f"reads v{sorted(_READABLE_VERSIONS)}"
            )
        digest = raw[off + 4 : off + 36]
        body = raw[off + 36 :]
        if hashlib.sha256(body).digest() != digest:
            raise SnapshotError(
                f"snapshot {path!r} failed its integrity check "
                f"(truncated or corrupted)"
            )
        fields = pickle.loads(body)
        return cls(
            version=fields["version"],
            repro_version=fields["repro_version"],
            cycle=fields["cycle"],
            fast_path=fields["fast_path"],
            structure=fields["structure"],
            payload=fields["payload"],
            kernel=fields.get(
                "kernel", "fast" if fields["fast_path"] else "interpreted"
            ),
            batch=fields.get("batch"),
        )


def snapshot_simulator(
    sim: Simulator,
    extras: Optional[Dict[str, Any]] = None,
    batch: Optional[Dict[str, Any]] = None,
) -> SimSnapshot:
    """Freeze ``sim`` at its current cycle boundary.

    ``extras`` rides along in the payload for caller bookkeeping that
    must survive with the simulator state (e.g. a campaign's
    mid-measurement counters); it is returned by
    :func:`restore_simulator` and may reference kernel objects.
    ``batch`` attaches a replica-batch container (plain picklable data,
    *not* run through the symbolic pickler) -- the v2 format addition
    that lets one checkpoint carry a whole batch's progress.
    """
    import repro

    wires: Dict[str, Tuple[Any, Any, bool]] = {}
    for w in sim._wires:
        if w._cur is not w.default or w._nxt is not w.default or w._driven:
            wires[w.name] = w.snapshot()
    state = {
        "cycle": sim.cycle,
        "fast_path": sim.kernel != "interpreted",
        "kernel": sim.kernel,
        "ticks_executed": sim.ticks_executed,
        "ticks_skipped": sim.ticks_skipped,
        "wires": wires,
        "components": {c.name: c.snapshot() for c in sim._components},
        "awake": [c.name for c in sim._awake],
        "hot": [w.name for w in sim._hot_wires],
        "ids": _global_id_state(),
        "extras": extras,
    }
    stream = io.BytesIO()
    try:
        _StatePickler(stream, sim).dump(state)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotError(
            f"simulator state is not serializable: {exc} -- components "
            f"holding open files, sockets or closures cannot be "
            f"checkpointed (see docs/CHECKPOINT.md)"
        ) from exc
    return SimSnapshot(
        version=SNAPSHOT_VERSION,
        repro_version=repro.__version__,
        cycle=sim.cycle,
        fast_path=sim.kernel != "interpreted",
        structure=_structure_of(sim),
        payload=stream.getvalue(),
        kernel=sim.kernel,
        batch=batch,
    )


def restore_simulator(sim: Simulator, snap: SimSnapshot) -> Dict[str, Any]:
    """Load ``snap`` into ``sim`` and return the snapshot's extras.

    ``sim`` must be structurally identical to the snapshotted simulator
    (same component names/types, same wires); the standard workflow is
    to re-run the construction code that built the original.  All
    existing runtime state in ``sim`` is discarded.

    Restore is *kernel-agnostic*: ``sim`` keeps its own scheduler mode
    (interpreted, fast, or compiled) regardless of which mode took the
    capture, and continuing under any mode is cycle-identical.  The
    captured wake set and hot-wire list are exact for a fast or
    compiled capture; the interpreted loop maintains neither, so a
    snapshot taken under it arms a scheduled target conservatively
    (every sleepy component wakes, every driven or non-default wire
    enters the hot list -- the same arming
    :meth:`~repro.sim.kernel.Simulator.set_kernel` performs when
    leaving ``"interpreted"``).  Component ``restore`` rebinds
    containers, so any generated program is invalidated.
    """
    if snap.version not in _READABLE_VERSIONS:
        raise SnapshotError(
            f"snapshot is format v{snap.version}; this library reads "
            f"v{sorted(_READABLE_VERSIONS)}"
        )
    structure = _structure_of(sim)
    if structure != snap.structure:
        raise SnapshotError(_describe_mismatch(structure, snap.structure))
    state = _StateUnpickler(io.BytesIO(snap.payload), sim).load()

    # Clean slate first: restore is wholesale, not incremental.
    sim.reset()
    sim._structure_changed()
    for name, wire_state in state["wires"].items():
        sim._wire_names[name].restore(wire_state)
    for name, comp_state in state["components"].items():
        sim._component_names[name].restore(comp_state)
    sim.cycle = state["cycle"]
    sim.ticks_executed = state["ticks_executed"]
    sim.ticks_skipped = state["ticks_skipped"]
    src_kernel = state.get(
        "kernel", "fast" if state["fast_path"] else "interpreted"
    )
    if src_kernel == "interpreted":
        # The interpreted loop keeps no scheduler state, so its captured
        # awake/hot sets say nothing.
        sim._arm_scheduler()
    else:
        sim._awake = {sim._component_names[n]: None for n in state["awake"]}
        hot = sim._hot_wires
        del hot[:]
        for name in state["hot"]:
            w = sim._wire_names[name]
            w._queued = True
            hot.append(w)
    _set_global_id_state(state["ids"])
    return state["extras"] or {}


def _describe_mismatch(have: Dict[str, Any], want: Dict[str, Any]) -> str:
    """A restore-target diagnosis that names what differs."""
    lines = ["cannot restore: simulator structure differs from the snapshot"]
    for key in ("components", "wires", "sleepy"):
        missing = sorted(set(map(str, want[key])) - set(map(str, have[key])))
        extra = sorted(set(map(str, have[key])) - set(map(str, want[key])))
        if missing:
            lines.append(f"  {key} missing here: {', '.join(missing[:5])}"
                         + (" ..." if len(missing) > 5 else ""))
        if extra:
            lines.append(f"  {key} extra here: {', '.join(extra[:5])}"
                         + (" ..." if len(extra) > 5 else ""))
    lines.append(
        "  (rebuild the simulator with the exact construction code of "
        "the snapshotted one, then restore)"
    )
    return "\n".join(lines)


def _global_id_state() -> Dict[str, int]:
    """Process-global id allocators whose values live in in-flight state."""
    from repro.core.flit import _packet_ids
    from repro.core.ocp import _txn_ids

    return {"txn": _txn_ids.next_value, "packet": _packet_ids.next_value}


def _set_global_id_state(ids: Dict[str, int]) -> None:
    from repro.core.flit import _packet_ids
    from repro.core.ocp import _txn_ids

    _txn_ids.next_value = ids["txn"]
    _packet_ids.next_value = ids["packet"]

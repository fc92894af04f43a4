"""Data-store persistence.

A campus data store outlives any single process.  Export writes one
directory per store: a manifest, the packet collections in the binary
capture format (:mod:`repro.capture.pcapng`), and flows/logs as
JSON-lines.  Import reconstructs a fully indexed store (tags and
curated labels included).

Export is **atomic**: everything is written into a sibling temp
directory which is swapped into place with ``os.replace`` only once
complete — a crash mid-export (real, or injected via a chaos
``persist.torn_write`` fault) leaves either the previous store or the
new one on disk, never a torn directory.  The manifest carries a SHA-256
checksum per data file; import verifies them, so a file truncated by
any path that bypassed the swap protocol is detected, not silently
half-loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.capture.flows import FlowRecord
from repro.capture.pcapng import read_packets, write_packets
from repro.capture.sensors import LogRecord
from repro.chaos.faults import FaultKind, TornWriteError
from repro.datastore.query import Query
from repro.datastore.store import DataStore

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1

#: the data files an export writes, in write order
DATA_FILES = ("packets.rpcp", "packets.meta.jsonl", "flows.jsonl",
              "logs.jsonl")


class PersistenceError(Exception):
    """Raised on malformed store directories."""


def _json_default(value):
    raise TypeError(f"not JSON serializable: {type(value)}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _chaos_tear(path: Path, fault_injector) -> None:
    """Injected crash mid-write: truncate the file, then die."""
    if fault_injector is None:
        return
    if fault_injector.should_fire(FaultKind.PERSIST_TORN_WRITE,
                                  file=path.name):
        size = path.stat().st_size
        with path.open("r+b") as fh:
            fh.truncate(size // 2)
        raise TornWriteError(f"injected crash while writing {path.name}")


def _write_store_files(store: DataStore, directory: Path,
                       fault_injector) -> Dict[str, str]:
    """Write every data file into ``directory``; return checksums."""
    packets = store.query(Query(collection="packets", order_by_time=True))
    write_packets(directory / "packets.rpcp",
                  [stored.record for stored in packets])
    _chaos_tear(directory / "packets.rpcp", fault_injector)

    with (directory / "packets.meta.jsonl").open("w") as fh:
        for stored in packets:
            fh.write(json.dumps({"tags": stored.tags,
                                 "label": stored.label}) + "\n")
    _chaos_tear(directory / "packets.meta.jsonl", fault_injector)

    with (directory / "flows.jsonl").open("w") as fh:
        for stored in store.query(Query(collection="flows",
                                        order_by_time=True)):
            row = dataclasses.asdict(stored.record)
            row["_label"] = stored.label
            fh.write(json.dumps(row, default=_json_default) + "\n")
    _chaos_tear(directory / "flows.jsonl", fault_injector)

    with (directory / "logs.jsonl").open("w") as fh:
        for stored in store.query(Query(collection="logs",
                                        order_by_time=True)):
            row = dataclasses.asdict(stored.record)
            row["_label"] = stored.label
            fh.write(json.dumps(row, default=_json_default) + "\n")
    _chaos_tear(directory / "logs.jsonl", fault_injector)

    return {name: _sha256(directory / name) for name in DATA_FILES}


def _swap_into_place(tmp: Path, directory: Path) -> None:
    """Atomically promote ``tmp`` to ``directory``."""
    if directory.exists():
        backup = directory.parent / f"{directory.name}.old-{os.getpid()}"
        if backup.exists():
            shutil.rmtree(backup)
        os.replace(str(directory), str(backup))
        os.replace(str(tmp), str(directory))
        shutil.rmtree(backup)
    else:
        os.replace(str(tmp), str(directory))


def export_store(store: DataStore, directory: Union[str, Path],
                 fault_injector=None) -> Path:
    """Write the whole store to ``directory`` (created if needed).

    All files land in a sibling ``<name>.tmp-<pid>`` directory first and
    are swapped in with ``os.replace`` once the manifest (with per-file
    checksums) is written — any failure before the swap leaves the
    previous export untouched.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = directory.parent / f"{directory.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        checksums = _write_store_files(store, tmp, fault_injector)
        manifest = {
            "format_version": FORMAT_VERSION,
            "counts": {name: store.count(name)
                       for name in ("packets", "flows", "logs")},
            "segment_capacity": store.segment_capacity,
            "checksums": checksums,
        }
        (tmp / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
        _swap_into_place(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return directory


def _verify_checksums(directory: Path, manifest: Dict) -> None:
    for name, expected in manifest.get("checksums", {}).items():
        path = directory / name
        if not path.exists():
            raise PersistenceError(f"manifest lists {name} but it is "
                                   f"missing from {directory}")
        actual = _sha256(path)
        if actual != expected:
            raise PersistenceError(
                f"checksum mismatch for {name}: the file is torn or "
                f"corrupt (expected {expected[:12]}…, got {actual[:12]}…)")


def import_store(directory: Union[str, Path],
                 metadata_extractor=None) -> DataStore:
    """Rebuild a store exported by :func:`export_store`.

    Tags are restored from the export (the extractor, if given, is only
    used for packets missing saved tags).  File checksums from the
    manifest are verified before any record is loaded.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise PersistenceError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {manifest.get('format_version')}"
        )
    _verify_checksums(directory, manifest)

    store = DataStore(
        metadata_extractor=metadata_extractor,
        segment_capacity=manifest.get("segment_capacity", 50_000),
    )

    packets = read_packets(directory / "packets.rpcp")
    meta_rows: List[Dict] = []
    meta_path = directory / "packets.meta.jsonl"
    if meta_path.exists():
        with meta_path.open() as fh:
            meta_rows = [json.loads(line) for line in fh if line.strip()]
    if meta_rows and len(meta_rows) != len(packets):
        raise PersistenceError("packet metadata length mismatch")
    store.ingest_packets(packets, tags=[row.get("tags", {})
                                        for row in meta_rows] or None)
    if meta_rows:
        position = 0
        for segment in store.segments("packets"):
            n = len(segment)
            segment.set_labels(np.arange(n), [
                row.get("label")
                for row in meta_rows[position:position + n]])
            position += n

    flows = []
    labels = []
    flows_path = directory / "flows.jsonl"
    if flows_path.exists():
        with flows_path.open() as fh:
            for line in fh:
                if not line.strip():
                    continue
                row = json.loads(line)
                labels.append(row.pop("_label", None))
                flows.append(FlowRecord(**row))
    store.ingest_flows(flows)
    _restore_labels(store, "flows", labels)

    logs = []
    labels = []
    logs_path = directory / "logs.jsonl"
    if logs_path.exists():
        with logs_path.open() as fh:
            for line in fh:
                if not line.strip():
                    continue
                row = json.loads(line)
                labels.append(row.pop("_label", None))
                logs.append(LogRecord(**row))
    store.ingest_logs(logs)
    _restore_labels(store, "logs", labels)
    return store


def _restore_labels(store: DataStore, collection: str,
                    labels: List[Optional[str]]) -> None:
    position = 0
    for segment in store.segments(collection):
        for stored in segment.records:
            if position < len(labels):
                stored.label = labels[position]
            position += 1

"""Shared JSON artifact envelope + atomic writer.

Every benchmark/CI artifact this repo archives (`check_smoke.json`,
`BENCH_smoke.json`, the perf-smoke baseline, the sweep runner's cache
records) used to hand-roll its own ``json.dumps`` + ``write_text``.
That had two costs: no common schema marker for downstream tooling to
dispatch on, and non-atomic writes — a crash (or Ctrl-C) mid-dump
leaves a torn file that later parses as garbage.  This module is the
single source of truth for both concerns:

* :func:`artifact_doc` wraps a payload in the standard envelope
  (``{"schema": "repro/<kind>/v<N>", ...payload}``);
* :func:`write_json_artifact` writes any JSON document atomically
  (write to a temp file in the destination directory, ``os.replace``)
  so readers only ever observe empty-or-complete files;
* :func:`read_json_artifact` loads a document and optionally checks
  the envelope kind, so a gate script fed the wrong report fails
  loudly instead of silently reading zeros.
"""

from __future__ import annotations

import json
import os
import secrets
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Every envelope schema id starts with this.
SCHEMA_PREFIX = "repro"


def artifact_doc(kind: str, payload: Dict[str, Any], version: int = 1) -> Dict[str, Any]:
    """Wrap ``payload`` in the standard artifact envelope.

    ``kind`` names the report shape (``check_smoke``, ``sweep``,
    ``perf_baseline``, ...); the resulting document carries
    ``schema = "repro/<kind>/v<version>"`` as its first key.
    """
    if not kind or "/" in kind:
        raise ValueError(f"artifact kind must be a bare name, got {kind!r}")
    doc: Dict[str, Any] = {"schema": f"{SCHEMA_PREFIX}/{kind}/v{version}"}
    for key, value in payload.items():
        if key == "schema":
            raise ValueError("payload must not carry its own 'schema' key")
        doc[key] = value
    return doc


def write_json_artifact(
    path: Union[str, Path], doc: Dict[str, Any], indent: int = 2
) -> Path:
    """Atomically write ``doc`` as JSON (+ trailing newline) to ``path``.

    The document is serialised first and written to a temporary file in
    the destination directory, then renamed over ``path`` — a reader
    (or a crash) can never observe a half-written artifact.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = json.dumps(doc, indent=indent) + "\n"
    tmp = path.parent / f".{path.name}.{secrets.token_hex(6)}.tmp"
    # Exclusive create with the default mode: the umask applies exactly
    # as it does to ``open(path, "w")``, and ``os.replace`` keeps it.
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_json_artifact(path: Union[str, Path], kind: Optional[str] = None) -> Dict[str, Any]:
    """Load a JSON artifact, optionally verifying its envelope ``kind``."""
    doc = json.loads(Path(path).read_text())
    if kind is not None:
        if not isinstance(doc, dict):
            raise ValueError(
                f"{path}: expected a {kind!r} artifact, got a JSON {type(doc).__name__}"
            )
        schema = doc.get("schema", "")
        if not (isinstance(schema, str) and schema.startswith(f"{SCHEMA_PREFIX}/{kind}/")):
            raise ValueError(
                f"{path}: expected a {kind!r} artifact, got schema {schema!r}"
            )
    return doc

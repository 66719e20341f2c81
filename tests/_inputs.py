"""Input files that tests build and foagen only reads."""

import json
from dataclasses import asdict


def write_manifest(path, entries) -> None:
    """Write ``ClipManifestEntry`` records as a line-delimited JSON manifest."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(asdict(entry)) + "\n" for entry in entries)

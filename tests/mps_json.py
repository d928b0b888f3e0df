"""Reader of the MPS JSON that `symprep inspect-mps --out` writes.

symprep writes this format and reads none of it, so the reader lives with
the tests: it is the oracle that `mps_to_json` output round-trips through.
"""

import json

import numpy as np

from symprep.mps import FORMAT_VERSION, Mps, MpsError, is_left_canonical
from symprep.numerics import is_int


def mps_from_json(text: str) -> Mps:
    """Inverse of mps_to_json; a malformed document is an MpsError, and a
    "left" canonical claim is checked, not trusted."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise MpsError("MPS document must be a JSON object")
    version = doc.get("format_version")
    if not is_int(version) or version != FORMAT_VERSION:
        raise MpsError(f"unsupported format_version {version!r}")
    try:
        tensors = [
            np.asarray(entry["data"], dtype=float).reshape(entry["shape"])
            for entry in doc["tensors"]
        ]
    except KeyError as exc:
        raise MpsError(f"MPS document lacks key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # wrong type, size or range
        raise MpsError(f"malformed MPS document: {exc}") from exc
    m = Mps(tensors, canonical=doc.get("canonical", "none"))
    if m.canonical == "left" and not is_left_canonical(m):
        raise MpsError("MPS document claims canonical 'left', but its tensors are not")
    return m

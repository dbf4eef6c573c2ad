"""Matrix JSON files and state specs for the CLI.

Matrix file schema (row-major, complex entries as [re, im] pairs):

    {"dim": n, "entries": [[[re, im], ...], ...]}

State specs select a matrix by exactly one of:

    {"file": "path.json"}
    {"generator": "density"|"reference"|"commuting"|"support_pair",
     "seed": u64, "dim": n,
     optional "full_rank": bool, "rank": int, "branch": str}
    {"example1": {"p": 0.25}}

"seed", "dim" and "rank" must be JSON integers (true, 7.0 and "7" are not)
and "full_rank" a JSON boolean ("false" is not); a generator spec with a
field of another type is a SpecError. "rank" is required for
"support_pair" and optional for "reference". The example1 "p" must be a
JSON number (true and "0.25" are not).

A matrix file's "dim" must be a JSON integer (true, 1.9 and "1" are not),
and every re and im a JSON number ("1", true and null are not) within
double range; a matrix file with any other dim or entry is a SpecError.

Paired generators ("commuting", "support_pair", "example1") use the
requested role to pick the rho or sigma member.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .linalg import MAX_ENTRY_MODULUS, hermitian_part
from . import states

HERMITICITY_LOAD_TOL = 1e-9
HERMITICITY_WARN_TOL = 1e-12


class SpecError(ValueError):
    """Malformed matrix file or state spec."""


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "dim": int(a.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }


def dump_matrix(a: np.ndarray, path: str | Path) -> None:
    """Write a matrix JSON file; floats round-trip exactly through repr."""
    Path(path).write_text(json.dumps(matrix_to_json(a)) + "\n")


def matrix_from_json(doc: dict) -> np.ndarray:
    try:
        dim = _typed(doc, "dim", int)
        entries = doc["entries"]
        # complex() refuses strings and null; of the JSON values it takes,
        # only true and false are not numbers
        a = np.array([[complex(re, im) for re, im in row] for row in entries])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"malformed matrix document: {exc}") from exc
    if [x for row in entries for entry in row for x in entry if x is True or x is False]:
        raise SpecError("malformed matrix document: matrix entries must be JSON numbers, "
                        "not true or false")
    if a.shape != (dim, dim):
        raise SpecError(f"entries shape {a.shape} does not match dim {dim}")
    if not np.all(np.isfinite(a)):
        raise SpecError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if scale > MAX_ENTRY_MODULUS:
        raise SpecError("matrix has entries beyond double range")
    defect = float(np.abs(a - a.conj().T).max())
    if defect > HERMITICITY_LOAD_TOL * scale:
        raise SpecError(f"matrix is not Hermitian within tolerance: defect {defect:.3e}")
    if defect > HERMITICITY_WARN_TOL * scale:
        warnings.warn(f"symmetrizing matrix with Hermiticity defect {defect:.3e}",
                      stacklevel=2)
    return hermitian_part(a)


def load_matrix(path: str | Path) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read matrix file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"matrix file {path} is not valid JSON: {exc}") from exc
    return matrix_from_json(doc)


def parse_state_spec(text: str) -> dict:
    """Inline JSON object if the string starts with '{', else a file path."""
    text = text.strip()
    if text.startswith("{"):
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"inline state spec is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise SpecError("inline state spec must be a JSON object")
        return spec
    return {"file": text}


def _typed(spec: dict, key: str, kind: type):
    """spec[key] of a state spec or matrix document, which must be of type
    `kind`: int for a JSON integer (a bool is not one), bool for a JSON
    boolean. KeyError when absent."""
    value = spec[key]
    if type(value) is not kind:
        what = "an integer" if kind is int else "a boolean"
        raise SpecError(f"state spec field {key!r} must be {what}, got {value!r}")
    return value


def resolve_state_spec(spec: str | dict, role: str) -> np.ndarray:
    """Turn a state spec into a matrix for the given role (rho or sigma)."""
    if role not in ("rho", "sigma"):
        raise ValueError(f"role must be rho or sigma, got {role!r}")
    if isinstance(spec, str):
        spec = parse_state_spec(spec)
    variants = [k for k in ("file", "generator", "example1") if k in spec]
    if len(variants) != 1:
        raise SpecError(f"state spec must have exactly one of file/generator/example1,"
                        f" got {sorted(spec)}")
    kind = variants[0]
    if kind == "file":
        return load_matrix(spec["file"])
    if kind == "example1":
        params = spec["example1"]
        try:
            p = params["p"]
        except (KeyError, TypeError) as exc:
            raise SpecError(f"example1 spec needs a numeric p: {exc}") from exc
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise SpecError(f"example1 spec field 'p' must be a JSON number, got {p!r}")
        try:
            p = float(p)
        except OverflowError as exc:
            raise SpecError(f"example1 spec field 'p' is beyond double range: {exc}") from exc
        rho, sigma = states.example1_pair(p)
        return rho if role == "rho" else sigma
    name = spec.get("generator")
    try:
        seed = _typed(spec, "seed", int)
        dim = _typed(spec, "dim", int)
    except KeyError as exc:
        raise SpecError(f"generator spec needs integer seed and dim: {exc}") from exc
    if name == "density":
        return states.random_density(dim, seed)
    if name == "reference":
        full_rank = _typed(spec, "full_rank", bool) if "full_rank" in spec else True
        rank = _typed(spec, "rank", int) if "rank" in spec else None
        return states.random_reference(dim, seed, full_rank=full_rank, rank=rank)
    if name == "commuting":
        rho, sigma, _, _ = states.commuting_pair(dim, seed)
        return rho if role == "rho" else sigma
    if name == "support_pair":
        try:
            rank = _typed(spec, "rank", int)
        except KeyError as exc:
            raise SpecError(f"support_pair spec needs an integer rank: {exc}") from exc
        branch = spec.get("branch", "dominating")
        rho, sigma = states.random_support_pair(dim, seed, rank=rank, branch=branch)
        return rho if role == "rho" else sigma
    raise SpecError(f"unknown generator {name!r}")

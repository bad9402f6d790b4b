"""JSON (de)serialization for the CLI surfaces.

Matrix schema: {"rows": m, "cols": n, "data": [[re, im], ...]} with data
row-major and one [re, im] pair per entry.  Weights are lists of per-block
lists of [re, im]; group elements are lists of blocks, each block a list
of matrices (coefficients by ascending degree).
"""

import json

import numpy as np

from .characters import GroupElement
from .jordan import TruncPoly


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(v.real), float(v.imag)] for v in m.flat],
    }


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return flat.reshape(rows, cols)


def complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    re, im = v
    return complex(re, im)


def complex_to_json(v) -> list:
    v = complex(v)
    return [v.real, v.imag]


def alpha_from_json(obj, lam) -> tuple:
    blocks = [[complex_from_json(v) for v in blk] for blk in obj]
    if tuple(len(b) for b in blocks) != tuple(lam):
        raise ValueError("weight blocks do not match the partition")
    return tuple(tuple(b) for b in blocks)


def element_from_json(obj, lam, r: int) -> GroupElement:
    blocks = obj["blocks"]
    if len(blocks) != len(lam):
        raise ValueError("one block per partition part required")
    tps = []
    for nk, blk in zip(lam, blocks):
        if len(blk) != nk:
            raise ValueError("block coefficient count must equal the part")
        tps.append(TruncPoly.from_list([matrix_from_json(c) for c in blk]))
    return GroupElement(tuple(tps))


def element_to_json(h: GroupElement) -> dict:
    return {
        "blocks": [[matrix_to_json(c) for c in blk.coeffs] for blk in h.blocks]
    }


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)

"""Output check: one CLI bundle against its stored reference.

A reference is a directory holding ``meta.json`` (the CLI arguments and the
expected exit code) and one gzipped copy of each CSV the seed commit wrote.
The manifest is not compared; it records versions and is not an output.

Compared exactly:
    * the exit code and the set of CSV tables, with their headers and row
      counts;
    * every non-float cell: the allocation assignment (``user``, ``ap_id``,
      ``wavelength``), placement ``status`` and ``detail``, record keys;
    * the per-node placement decision, the ``mips_*`` columns.

Compared within ``REL_TOL``: every other float.  Reordering double-precision
sums (a vectorised kernel, a per-room cache) moves a result by about
n * 2**-52, under 1e-10 even for the ~3e5-term second-order sums, so
``REL_TOL = 1e-9`` leaves a tenfold margin for that while any change of
modelling, a lost term or a single-precision path shows up.  A decision that
such a change could flip is in the exact set above.

Not compared: ``allocation_summary.node_count``, a search statistic that an
exact solver may change without changing its answer.  It is still covered by
byte identity, which is reported separately and does not fail the check.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path
from typing import List, Tuple

REL_TOL = 1e-9
NOT_COMPARED = {("allocation_summary", "node_count")}
MAX_REPORTED = 5


def _as_float(text: str):
    # The bundle writer prints floats with repr(), which always carries a
    # '.', an exponent, 'inf' or 'nan'; integers never do.
    if not any(c in text for c in ".eE") and text not in ("inf", "-inf", "nan"):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _cells_match(table: str, column: str, ref: str, out: str) -> bool:
    if ref == out or (table, column) in NOT_COMPARED:
        return True
    if table == "placement" and column.startswith("mips_"):
        return False
    a, b = _as_float(ref), _as_float(out)
    if a is None or b is None:
        return False
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _compare_table(table: str, ref_text: str, out_text: str) -> List[str]:
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    out_rows = list(csv.reader(io.StringIO(out_text)))
    if not ref_rows or not out_rows or ref_rows[0] != out_rows[0]:
        return [f"{table}: header differs"]
    if len(ref_rows) != len(out_rows):
        return [f"{table}: {len(out_rows) - 1} rows, expected {len(ref_rows) - 1}"]
    header = ref_rows[0]
    problems = []
    for i, (r_row, o_row) in enumerate(zip(ref_rows[1:], out_rows[1:]), 1):
        if len(r_row) != len(o_row):
            problems.append(f"{table} row {i}: {len(o_row)} cells")
            continue
        for column, r, o in zip(header, r_row, o_row):
            if not _cells_match(table, column, r, o):
                problems.append(f"{table} row {i} {column}: {o!r} != {r!r}")
    return problems


def compare(exit_code, out_dir: Path, ref_dir: Path) -> Tuple[List[str], bool]:
    """Return ``(problems, byte_identical)`` for one CLI invocation.

    ``problems`` is empty when the output passes the check; ``byte_identical``
    says whether every CSV matches the reference byte for byte.
    """
    meta = json.loads((ref_dir / "meta.json").read_text())
    if exit_code != meta["exit"]:
        return [f"exit code {exit_code}, expected {meta['exit']}"], False
    ref_tables = sorted(p.name[:-len(".csv.gz")] for p in ref_dir.glob("*.csv.gz"))
    out_tables = sorted(p.stem for p in out_dir.glob("*.csv"))
    if ref_tables != out_tables:
        return [f"tables {out_tables}, expected {ref_tables}"], False
    problems: List[str] = []
    identical = True
    for table in ref_tables:
        ref_bytes = gzip.decompress((ref_dir / f"{table}.csv.gz").read_bytes())
        out_bytes = (out_dir / f"{table}.csv").read_bytes()
        if ref_bytes == out_bytes:
            continue
        identical = False
        problems += _compare_table(table, ref_bytes.decode(), out_bytes.decode())
    return problems[:MAX_REPORTED], identical

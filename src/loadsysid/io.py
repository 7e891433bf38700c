"""CSV and report file formats.

All CSVs are comma separated with dot decimals, one header row of column
names, and '#'-prefixed comment lines carrying provenance (sample period,
seeds, schema version).  Floats are written with repr so every file
round-trips bit exactly.
"""

from __future__ import annotations

import numpy as np

from loadsysid.errors import ToolkitError
from loadsysid.series import COLUMNS, MeasurementSeries

SCHEMA_VERSION = "1"


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_table(path, columns, rows, comments=None):
    lines = []
    for c in comments or []:
        lines.append(f"# {c}")
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        # tolist gives Python floats, whose repr is _fmt's, in one call.
        lines += [",".join(map(repr, r)) for r in rows.tolist()]
    else:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_table(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            parts = line.split(",")
            if header is None:
                header = [p.strip() for p in parts]
                continue
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ToolkitError(f"{path}:{lineno}: bad value: {exc}") from exc
    if header is None:
        raise ToolkitError(f"{path}: no header row")
    return comments, header, np.array(rows) if rows else np.empty((0, len(header)))


def write_series(path, series):
    comments = [
        f"schema=measurement-v{SCHEMA_VERSION}",
        f"ts={_fmt(series.ts)}",
        f"detrended={int(series.detrended)}",
    ]
    for key in ("seed_internal", "seed_external", "measurement_variance",
                "duration"):
        if key in series.meta and series.meta[key] is not None:
            comments.append(f"{key}={series.meta[key]}")
    if series.detrended:
        comments.append(
            "means=" + ",".join(_fmt(v) for v in series.means)
        )
        columns = ["time"] + [f"d{c}" for c in COLUMNS]
        data = np.column_stack([series.time, series.deltas])
    else:
        columns = ["time"] + list(COLUMNS)
        data = np.column_stack([series.time, series.data])
    write_table(path, columns, data, comments)


def read_series(path):
    comments, header, data = read_table(path)
    meta = {}
    ts = None
    detrended = False
    means = None
    for c in comments:
        if "=" not in c:
            continue
        key, val = c.split("=", 1)
        if key == "ts":
            ts = float(val)
        elif key == "detrended":
            detrended = bool(int(val))
        elif key == "means":
            means = np.array([float(v) for v in val.split(",")])
        else:
            meta[key] = val
    if ts is None:
        raise ToolkitError(f"{path}: missing ts header comment")
    time = data[:, 0]
    cols = data[:, 1:]
    if detrended:
        if means is None:
            raise ToolkitError(f"{path}: detrended series without means")
        return MeasurementSeries(
            ts=ts, time=time, data=cols + means[None, :], detrended=True,
            deltas=cols, means=means, meta=meta,
        )
    return MeasurementSeries(ts=ts, time=time, data=cols, meta=meta)


def write_frf(path, frf, label=""):
    p, q = frf.values.shape[1], frf.values.shape[2]
    columns = ["omega_rad_s"]
    for i in range(p):
        for j in range(q):
            columns += [f"re_{i + 1}{j + 1}", f"im_{i + 1}{j + 1}"]
    rows = []
    for k, w in enumerate(frf.omega):
        row = [w]
        for i in range(p):
            for j in range(q):
                row += [frf.values[k, i, j].real, frf.values[k, i, j].imag]
        rows.append(row)
    comments = [f"schema=frf-v{SCHEMA_VERSION}"]
    if label:
        comments.append(f"label={label}")
    write_table(path, columns, rows, comments)


def write_report(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

"""CSV and JSON text builders for run outputs.

All builders return complete file contents as strings so callers can
write them atomically and determinism checks can compare bytes.  Reals
are formatted with 17 significant digits (lossless round-trip), '.'
decimal separator, no locale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .experiments import ExperimentReport, ReplicationRow
from .models import PathStats, SensorPaths
from .triggers import MessageLog

__all__ = [
    "fmt",
    "rows_csv_text",
    "summary_json_text",
    "paths_csv_text",
    "messages_csv_text",
    "estimates_csv_text",
    "density_csv_text",
]


def fmt(v) -> str:
    """One CSV field: None is empty, a bool 1 or 0, a string has its
    commas made semicolons, a real has 17 significant digits."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";")
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def rows_csv_text(report: ExperimentReport) -> str:
    """One line per ``ReplicationRow``, its fields in declaration order."""
    names = [f.name for f in fields(ReplicationRow)]
    lines = [",".join(names)]
    lines += [",".join(fmt(getattr(r, name)) for name in names) for r in report.rows]
    return "\n".join(lines) + "\n"


def summary_json_text(report: ExperimentReport, config_hash: str = "") -> str:
    """The run's seed and size, its warnings, and one object per
    ``PointAggregate`` keyed by its fields."""
    doc = {
        "config_hash": config_hash,
        "master_seed": report.config.master_seed,
        "n_replications": report.config.n_replications,
        "warnings": list(report.warnings),
        "aggregates": [asdict(a) for a in report.aggregates],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def paths_csv_text(paths: SensorPaths, stats: PathStats) -> str:
    K = paths.Y.shape[0]
    header = ["t"] + [f"Y_{i + 1}" for i in range(K)] + ["B", "A", "M"]
    lines = [",".join(header)]
    times = paths.grid.times()
    M = stats.B - paths.lambda_true * stats.A  # the score, a martingale
    for k in range(times.size):
        vals = [fmt(times[k])]
        vals += [fmt(paths.Y[i, k]) for i in range(K)]
        vals += [fmt(stats.B[k]), fmt(stats.A[k]), fmt(M[k])]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def messages_csv_text(log: MessageLog) -> str:
    """One line per message (sensor, kind, time, bit, overshoot), sensor
    by sensor in time order, bit messages first on ties; a timing message
    leaves bit and overshoot empty."""
    lines = ["sensor,kind,time,bit,overshoot"]
    for i in range(log.K):
        b = log.b[i]
        rows = [(t, 0, f"B,{fmt(t)},{int(z)},{fmt(eta)}") for t, z, eta in zip(b.time, b.bit, b.overshoot)]
        rows += [(t, 1, f"A,{fmt(t)},,") for t in log.a[i].time]
        rows.sort(key=lambda r: (r[0], r[1]))
        lines += [f"{i},{text}" for _t, _kind, text in rows]
    return "\n".join(lines) + "\n"


def estimates_csv_text(results, replication: int = 0, point=None) -> str:
    """EstimateResult rows: replication, estimator, gamma_or_t, value,
    stop_time, info_used, messages_used."""
    lines = ["replication,estimator,gamma_or_t,value,stop_time,info_used,messages_used"]
    for res in results:
        lines.append(
            ",".join(
                (
                    str(replication),
                    res.estimator,
                    fmt(point),
                    fmt(res.value),
                    fmt(res.stop_time),
                    fmt(res.info_used),
                    str(res.messages_used),
                )
            )
        )
    return "\n".join(lines) + "\n"


def density_csv_text(ts, p_up, p_down) -> str:
    lines = ["t,p_up,p_down"]
    for t, u, d in zip(ts, p_up, p_down):
        lines.append(f"{fmt(t)},{fmt(u)},{fmt(d)}")
    return "\n".join(lines) + "\n"

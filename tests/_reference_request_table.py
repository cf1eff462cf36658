"""The request table as it was built before requests became columns.

A verbatim copy of ``repro.experiments.summary.request_table`` from
before :class:`~repro.ntier.request.RequestLog`: one structured-array
row per :class:`~repro.ntier.request.Request`, filled field by field
from the request's accessors.  Nothing in ``src`` uses it: it is the
reference ``tests/test_request_record.py`` checks the column-filled
table against, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ntier.request import Request

__all__ = ["request_table"]


def request_table(
    requests: Sequence[Request], tiers: Sequence[str]
) -> np.ndarray:
    """Pack request records into a structured numpy array.

    Per-tier response times land in ``rt_<tier>`` columns (NaN when the
    request has no span at that tier), mirroring the accessor methods
    on :class:`~repro.ntier.request.Request` exactly — the floats in
    the table are the same Python floats those methods return.
    """
    dtype = np.dtype(
        [
            ("rid", "i8"),
            ("t_first_attempt", "f8"),
            ("t_done", "f8"),
            ("response_time", "f8"),
            ("attempts", "i4"),
            ("failed", "?"),
            ("drops", "i4"),
            ("weight", "f8"),
        ]
        + [(f"rt_{tier}", "f8") for tier in tiers]
    )
    table = np.empty(len(requests), dtype=dtype)
    for i, r in enumerate(requests):
        row = table[i]
        row["rid"] = r.rid
        row["t_first_attempt"] = r.t_first_attempt
        row["t_done"] = r.t_done if r.t_done is not None else np.nan
        rt = r.response_time
        row["response_time"] = rt if rt is not None else np.nan
        row["attempts"] = r.attempts
        row["failed"] = r.failed
        row["drops"] = r.drops
        row["weight"] = r.weight
        for tier in tiers:
            tier_rt = r.tier_response_time(tier)
            row[f"rt_{tier}"] = tier_rt if tier_rt is not None else np.nan
    return table

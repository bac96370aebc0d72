"""Scalar oracle for the maze router's distance field."""

from __future__ import annotations

import heapq

import numpy as np


def dist_field(sources, box, cost_h, cost_v, tracer) -> np.ndarray:
    """Dijkstra settled over the whole box.

    Same signature and result as ``repro.pnr.routing.router._dist_field``
    (``tracer`` is accepted and unused: there are no sweeps to count).
    """
    x0, y0, x1, y1 = box
    dist = np.full((y1 - y0 + 1, x1 - x0 + 1), np.inf)
    heap = []
    for c, r in sources:
        if x0 <= c <= x1 and y0 <= r <= y1:
            dist[r - y0, c - x0] = 0.0
            heap.append((0.0, (c, r)))
    heapq.heapify(heap)
    while heap:
        d, (c, r) = heapq.heappop(heap)
        if d > dist[r - y0, c - x0]:
            continue
        for nxt in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
            if not (x0 <= nxt[0] <= x1 and y0 <= nxt[1] <= y1):
                continue
            if nxt[1] == r:
                step = cost_h[r, min(c, nxt[0])]
            else:
                step = cost_v[min(r, nxt[1]), c]
            nd = d + step
            if nd < dist[nxt[1] - y0, nxt[0] - x0]:
                dist[nxt[1] - y0, nxt[0] - x0] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist

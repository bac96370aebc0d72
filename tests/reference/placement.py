"""Scalar oracle for the analytic-placement relaxation sweep."""

from __future__ import annotations


def relax_sweep(xs, ys, e_net, e_cell, w_net, anchor_x, anchor_y,
                net_size, cell_weight, movable) -> None:
    """One Jacobi sweep as explicit loops over the incidence list.

    Same signature and result as ``repro.pnr.placement._relax_sweep``:
    every accumulation runs in entry order, as ``np.add.at`` does.
    """
    entry_net = e_net.tolist()
    entry_cell = e_cell.tolist()
    net_weight = w_net.tolist()
    net_size_l = net_size.tolist()
    cell_weight_l = cell_weight.tolist()
    movable_l = movable.tolist()
    n_nets = len(net_size_l)
    n = len(xs)

    xs_l = xs.tolist()
    ys_l = ys.tolist()
    net_sx = anchor_x.tolist()
    net_sy = anchor_y.tolist()
    for i, c in zip(entry_net, entry_cell):
        net_sx[i] += xs_l[c]
        net_sy[i] += ys_l[c]
    cx = [net_sx[i] / net_size_l[i] for i in range(n_nets)]
    cy = [net_sy[i] / net_size_l[i] for i in range(n_nets)]
    pull_x = [0.0] * n
    pull_y = [0.0] * n
    for i, c in zip(entry_net, entry_cell):
        pull_x[c] += net_weight[i] * cx[i]
        pull_y[c] += net_weight[i] * cy[i]
    for c in range(n):
        if movable_l[c]:
            xs_l[c] = pull_x[c] / cell_weight_l[c]
            ys_l[c] = pull_y[c] / cell_weight_l[c]
    xs[:] = xs_l
    ys[:] = ys_l

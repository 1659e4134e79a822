"""Reference copies of the five CSV writers as they stood when each row went
through one ``csv.writer.writerow`` call, from ``integrate``, ``analysis``
and ``device``. The tests compare the files the package writes with the
files these write, byte for byte. Do not edit the function bodies; they are
the oracle.
"""

import csv

from memchua.device import IV_HEADER, STATE_HEADER, StateTable


def write_trajectory_csv(path, traj):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "v1_V", "v2_V", "iL_A"])
        for t, row in zip(traj.times, traj.states):
            writer.writerow([repr(float(t)), repr(float(row[0])),
                             repr(float(row[1])), repr(float(row[2]))])


def write_events_csv(path, traj):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "kind", "value"])
        for ev in traj.events:
            writer.writerow([repr(ev.time), ev.kind, repr(ev.value)])


def write_bifurcation_csv(path, points):
    """One row per extremum: r_prog_ohm, extremum_v1_V, class."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_prog_ohm", "extremum_v1_V", "class"])
        for pt in points:
            for val in pt.extrema:
                writer.writerow([repr(float(pt.r_prog)), repr(float(val)),
                                 pt.verdict.label])


def save_iv_csv(path, samples):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(IV_HEADER)
        for s in samples:
            writer.writerow([repr(float(s[0])), repr(float(s[1]))])


def save_state_table(path, table):
    states = table.states if isinstance(table, StateTable) else list(table)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATE_HEADER)
        for s in states:
            writer.writerow([repr(float(s.r_prog)), repr(float(s.v_set_mag)),
                             repr(float(s.v_stop))]
                            + [repr(float(c)) for c in s.poly.coefficients])

"""Arithmetic behind the benchmark's metrics: medians, recall, layer sums.

Kept apart from run.py so test_perfbench.py can check it on small inputs.
"""

import statistics


def median_with_count(values):
    """Median of `values` and how many samples it was taken over."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def truth_triples(truth):
    """Ground-truth (qid, host, window) triples from a generator truth file.

    A window counts only when the attack covers it fully: it starts at or
    after the attack's start and ends at or before the attack's end.
    """
    window_s = truth["window_s"]
    triples = set()
    for attack in truth["attacks"]:
        for w in range(truth["windows"]):
            start, end = w * window_s, (w + 1) * window_s
            if start >= attack["start_s"] - 1e-9 and end <= attack["end_s"] + 1e-9:
                triples.add((attack["qid"], attack["host"], w))
    return triples


def recall(truth, detections):
    """Share of ground-truth triples among the reported detections.

    `detections` holds [window, qid, host] entries as the engine reports
    them; detections of hosts that are not in the truth do not count
    against recall.
    """
    expected = truth_triples(truth)
    if not expected:
        raise ValueError("ground truth has no fully covered window")
    reported = {(qid, host, w) for w, qid, host in detections}
    return len(expected & reported) / len(expected)


# Most of the traced wall that the layer timers may leave uncovered. The
# loop glue between timed calls takes about 0.1%; a layer call left untimed,
# or work moved into the glue, pushes the rest past this.
MAX_UNATTRIBUTED_SHARE = 0.01


def layer_sum(layer_s, wall_s):
    """Split a traced wall time into layer self-times and the rest.

    Returns (unattributed_share, ok). `ok` is true when no layer is
    negative, the layers do not overlap (their sum is at most the wall),
    and the time no layer covers is at most MAX_UNATTRIBUTED_SHARE of the
    wall.
    """
    if wall_s <= 0:
        return 0.0, False
    share = (wall_s - sum(layer_s.values())) / wall_s
    ok = all(v >= 0 for v in layer_s.values()) and 0 <= share <= MAX_UNATTRIBUTED_SHARE
    return share, ok


def trace_overhead(traced_wall_s, untraced_wall_s):
    """Traced wall over untraced wall, minus 1."""
    return traced_wall_s / untraced_wall_s - 1.0

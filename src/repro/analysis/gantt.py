"""ASCII Gantt rendering of execution traces.

Used by the examples and benches to print Figure-8-style timelines:

::

    B3   |  ████·······████████····████  |
    B2   |  ········████····█████████··  |
"""

from repro.analysis.trace_analysis import exec_segments

FILL = "#"
IDLE = "."


def render(trace, actors=None, width=72, t_end=None, markers=None):
    """Render execution segments as an ASCII Gantt chart.

    Parameters
    ----------
    actors:
        Row order; defaults to actors in order of first appearance.
    width:
        Number of character cells the time axis is quantized into.
    t_end:
        Time span to show; defaults to the last segment end.
    markers:
        Optional ``{label: time}`` drawn as a ruler row underneath.
    """
    segments = exec_segments(trace)
    if actors is None:
        actors = []
        for actor, *_ in segments:
            if actor not in actors:
                actors.append(actor)
    if t_end is None:
        t_end = max((s[2] for s in segments), default=0)
    if t_end <= 0:
        return "(empty trace)"
    scale = width / t_end
    name_width = max((len(a) for a in actors), default=4) + 1
    lines = []
    for actor in actors:
        row = [IDLE] * width
        for _, start, end, _ in exec_segments(trace, actor):
            lo = int(start * scale)
            hi = max(lo + 1, int(end * scale))
            for i in range(lo, min(hi, width)):
                row[i] = FILL
        lines.append(f"{actor:<{name_width}}|{''.join(row)}|")
    axis = f"{'':<{name_width}}|{_axis(width, t_end)}|"
    lines.append(axis)
    if markers:
        lines.append(_marker_row(markers, name_width, width, scale))
    return "\n".join(lines)


def _axis(width, t_end):
    """Time labels at 0, 1/4, 1/2 and 3/4 of the axis and the end time.

    The end label is written where it fits; a quarter label only where
    it fits with a blank cell after the label before it and before the
    end label, so no two labels run together into a number that is no
    time on the axis.
    """
    row = [" "] * width
    tail = str(t_end)
    limit = width
    if len(tail) <= width:
        limit = width - len(tail) - 1  # keep a blank cell before the end
        row[width - len(tail):] = tail
    free = 0  # first cell a label may start in
    for frac in (0.0, 0.25, 0.5, 0.75):
        pos = int(frac * width)
        label = str(int(frac * t_end))
        if pos >= free and pos + len(label) <= limit:
            row[pos:pos + len(label)] = label
            free = pos + len(label) + 1
    return "".join(row)


def _marker_row(markers, name_width, width, scale):
    row = [" "] * width
    for label, time in markers.items():
        pos = min(int(time * scale), width - 1)
        row[pos] = "^"
    legend = " ".join(f"{label}={time}" for label, time in markers.items())
    return f"{'':<{name_width}}|{''.join(row)}|  {legend}"

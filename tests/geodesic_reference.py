"""Second readers of the geodesic module's recurrence, kept as the tests' references.

The package computes every distance and arrival from one clearance/top
recurrence.  These are the closed forms it replaced: the forced descent of
an x-monotone path, and a face profile read at a parameter by
interpolation.  Tests compare the package against them.
"""


def forced_descent(heights, terminal_height):
    """Minimal total downward movement clearing ``heights`` in order, ending at ``terminal_height``.

    Returns sum_i max(0, h_i - max(M_{i+1}, terminal_height)) where M_{i+1}
    is the maximum height strictly after i (0 if none).  Equals
    max(0, max(heights) - terminal_height): only descents from running peaks
    are ever forced.
    """
    if isinstance(terminal_height, bool) or not terminal_height >= 0:  # nan fails the test too
        raise ValueError(f"terminal height must be a number >= 0, got {terminal_height}")
    total = suffix_max = 0
    # accumulate from the back so the suffix maximum is available
    for h in reversed(list(heights)):
        if isinstance(h, bool) or h != h:
            raise ValueError(f"height {h} is not a number")
        floor = suffix_max if suffix_max > terminal_height else terminal_height
        if h > floor:
            total = total + (h - floor)
        if h > suffix_max:
            suffix_max = h
    return total


def arrival(profile, param):
    """The arrival time of a ``FaceArrivalProfile`` at arclength ``param``, interpolated between its points."""
    pts = profile.points
    if not (pts[0][0] <= param <= pts[-1][0]):
        raise ValueError(f"parameter {param} outside [{pts[0][0]}, {pts[-1][0]}]")
    for (p0, t0), (p1, t1) in zip(pts, pts[1:]):
        if param <= p1:
            if p1 == p0:
                return t0
            return t0 + (t1 - t0) * (param - p0) / (p1 - p0)

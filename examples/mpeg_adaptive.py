#!/usr/bin/env python
"""MPEG macroblock decoding with adaptive scheduling (paper §IV).

Builds the paper's Figure-3 CTG (40 tasks, 9 branch forks) on the
3-PE platform, visualises the branch-probability dynamics of one clip
(Figure 4's three data series, rendered as ASCII), then compares the
non-adaptive online schedule against the adaptive framework at both
thresholds on that clip.

Run:  python examples/mpeg_adaptive.py [movie]
      (movie defaults to "Shuttle"; see repro.workloads.MOVIE_PROFILES)
"""

import sys

from repro.adaptive import AdaptiveConfig
from repro.analysis import format_table
from repro.experiments import figure4_spec, run_spec
from repro.scheduling import set_deadline_from_makespan
from repro.sim import empirical_distribution, energy_savings, run_adaptive, run_non_adaptive
from repro.workloads import MOVIE_PROFILES, movie_trace, mpeg_ctg, mpeg_platform


def ascii_plot(series, height: int = 8, width: int = 72) -> str:
    """Tiny ASCII chart of a 0..1 series (down-sampled to ``width``)."""
    step = max(1, len(series) // width)
    samples = series[::step][:width]
    rows = []
    for level in range(height, -1, -1):
        threshold = level / height
        row = "".join("█" if value >= threshold - 1e-9 else " " for value in samples)
        rows.append(f"{threshold:4.1f} |{row}")
    return "\n".join(rows)


def main() -> None:
    movie = sys.argv[1] if len(sys.argv) > 1 else "Shuttle"
    if movie not in MOVIE_PROFILES:
        raise SystemExit(f"unknown movie {movie!r}; choose from {sorted(MOVIE_PROFILES)}")

    ctg = mpeg_ctg()
    platform = mpeg_platform()
    deadline = set_deadline_from_makespan(ctg, platform, factor=1.6)
    print(
        f"MPEG macroblock decoder: {len(ctg)} tasks, "
        f"{len(ctg.branch_nodes())} branch forks, {len(platform)} PEs, "
        f"deadline {deadline:.1f}"
    )

    # Figure 4: the branch-probability dynamics of this clip.
    figure4 = run_spec(figure4_spec(movie=movie), jobs=1).result
    print(f"\ntype-I branch probability (window 50) over 1000 macroblocks of {movie}:")
    print(ascii_plot(figure4.windowed))
    print(
        f"filtered staircase (T=0.1): {figure4.updates} updates, "
        f"tracking error {figure4.tracking_error():.3f}"
    )

    # Figure 5 / Table 2 for this clip.
    trace = movie_trace(ctg, movie, length=2000)
    train, test = trace[:1000], trace[1000:]
    profile = empirical_distribution(ctg, train)
    print(f"\ntrained profile: P(intra) = {profile['classify']['b1']:.2f}, "
          f"P(skip) = {profile['parse']['a2']:.2f}")

    online = run_non_adaptive(ctg, platform, test, profile)
    rows = [["online (non-adaptive)", round(online.total_energy), 0, "-"]]
    for threshold in (0.5, 0.1):
        adaptive = run_adaptive(
            ctg, platform, test, profile,
            AdaptiveConfig(window_size=20, threshold=threshold),
        )
        rows.append(
            [
                f"adaptive T={threshold}",
                round(adaptive.total_energy),
                adaptive.reschedule_calls,
                f"{100 * energy_savings(online, adaptive):.1f}%",
            ]
        )
    print()
    print(
        format_table(
            ["policy", "energy (1000 MBs)", "re-scheduling calls", "savings"],
            rows,
            title=f"Adaptive vs online on {movie}",
        )
    )


if __name__ == "__main__":
    main()

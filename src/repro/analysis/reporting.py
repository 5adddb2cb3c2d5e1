"""Plain-text rendering of tables and series for benchmark output.

Each benchmark prints the rows/series the corresponding paper figure
plots, so `pytest benchmarks/ --benchmark-only -s` regenerates the
evaluation in textual form.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    """A boxed, column-aligned table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [f"== {title} ==", sep,
             "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) +
             "|", sep]
    for row in str_rows:
        lines.append("|" + "|".join(
            f" {c:>{w}} " for c, w in zip(row, widths)) + "|")
    lines.append(sep)
    return "\n".join(lines)


def render_series(title: str, series: Sequence[Tuple[float, float]],
                  x_label: str = "x", y_label: str = "y",
                  width: int = 48) -> str:
    """A horizontal ASCII bar chart of an (x, y) series."""
    if not series:
        return f"== {title} ==\n(no data)"
    max_y = max(y for _x, y in series) or 1.0
    lines = [f"== {title} ==  ({x_label} vs {y_label})"]
    for x, y in series:
        bar = "#" * max(0, int(y / max_y * width))
        lines.append(f"{_fmt(x):>12} | {bar:<{width}} {_fmt(y)}")
    return "\n".join(lines)


def render_percentile_lines(title: str, labeled_series, x_label: str = "t"
                            ) -> str:
    """Multiple named series, one compact row per x position."""
    lines = [f"== {title} =="]
    labels = [label for label, _s in labeled_series]
    lines.append(f"{x_label:>12}  " + "  ".join(f"{l:>12}" for l in labels))
    xs = sorted({x for _label, s in labeled_series for x, _y in s})
    by_label = {label: dict(s) for label, s in labeled_series}
    for x in xs:
        cells = []
        for label in labels:
            y = by_label[label].get(x)
            cells.append(f"{_fmt(y):>12}" if y is not None else " " * 12)
        lines.append(f"{_fmt(x):>12}  " + "  ".join(cells))
    return "\n".join(lines)


def render_metrics(snapshot, title: str = "metrics") -> str:
    """Render a ``MetricsRegistry.snapshot()`` as plain-text tables.

    Counter and gauge series share one value table; histogram series get
    a count/mean/percentile table. Families registered but with no series
    yet are listed at the end so a sparse run still shows what exists.
    """
    value_rows: List[List] = []
    hist_rows: List[List] = []
    idle: List[str] = []
    for name, family in sorted(snapshot.items()):
        series = family.get("series", [])
        if not series:
            idle.append(name)
            continue
        for s in series:
            labels = _labels_str(s.get("labels", {}))
            if family.get("kind") == "histogram":
                hist_rows.append([name, labels, s["count"], s["mean"],
                                  s["p50"], s["p90"], s["p99"], s["p99.9"]])
            else:
                value_rows.append([name, labels, s["value"]])
    parts = []
    if value_rows:
        parts.append(render_table(f"{title}: counters & gauges",
                                  ["metric", "labels", "value"], value_rows))
    if hist_rows:
        parts.append(render_table(
            f"{title}: histograms",
            ["metric", "labels", "count", "mean", "p50", "p90", "p99",
             "p99.9"], hist_rows))
    if idle:
        parts.append("(registered, no series yet: " + ", ".join(idle) + ")")
    if not parts:
        return f"== {title} ==\n(no metrics registered)"
    return "\n".join(parts)


_SPARK_CHARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 32) -> str:
    """A unicode sparkline of a numeric series, resampled to ``width``."""
    vals = [v for v in values if v == v]  # drop NaNs
    if not vals:
        return "(no data)"
    if len(vals) > width:
        step = len(vals) / width
        vals = [vals[int(i * step)] for i in range(width)]
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    top = len(_SPARK_CHARS) - 1
    return "".join(_SPARK_CHARS[int((v - lo) / span * top)] for v in vals)


def render_timeseries(title: str, series_list, width: int = 32,
                      max_rows: int = 40) -> str:
    """Scraped :class:`~repro.telemetry.timeseries.TimeSeries` rows (or
    their ``to_dict`` exports) as name / sparkline / last-value lines —
    the dashboard surface for the observability plane."""
    rows = []
    for ts in series_list[:max_rows]:
        if isinstance(ts, dict):
            points = list(ts["points"])
            name = (f"{ts['name']}{{{_labels_str(ts['labels'])}}}"
                    f".{ts['field']}")
        else:
            points = list(ts.points)
            name = f"{ts.name}{{{_labels_str(ts.labels)}}}.{ts.field}"
        last = points[-1][1] if points else float("nan")
        rows.append([name, sparkline([v for _t, v in points], width),
                     _fmt(last)])
    omitted = len(series_list) - len(rows)
    out = render_table(title, ["series", "shape", "last"], rows)
    if omitted > 0:
        out += f"\n(+{omitted} more series)"
    return out


def render_alerts(title: str, alerts: Sequence[dict]) -> str:
    """SLO alert transitions (dicts from ``AlertEvent.to_dict``)."""
    if not alerts:
        return f"== {title} ==\n(no alerts)"
    rows = [[f"{a['at']:.3f}", a["kind"], a["cell"], a["objective"],
             a["severity"], f"{a['burn_long']:.1f}",
             f"{a['burn_short']:.1f}", f"{a['factor']:g}"]
            for a in alerts]
    return render_table(title,
                        ["t (s)", "event", "cell", "objective", "severity",
                         "burn(long)", "burn(short)", "threshold"], rows)


def render_sli(title: str, sli_summary: dict) -> str:
    """The plane's per-prober SLI summary as a table."""
    rows = []
    for label, sli in sorted(sli_summary.get("probers", {}).items()):
        rows.append([label, int(sli.get("ops", 0)),
                     f"{sli.get('availability', float('nan')):.5f}",
                     f"{sli.get('latency_sli', float('nan')):.5f}"])
    table = render_table(title,
                         ["prober", "ops", "availability", "latency SLI"],
                         rows)
    return (f"{table}\n"
            f"alerts fired={sli_summary.get('alerts_fired', 0)} "
            f"active={sli_summary.get('alerts_active', 0)} "
            f"scrapes={sli_summary.get('scrapes', 0)}")


def render_soak_report(report) -> str:
    """Every section a :class:`~repro.faults.SoakReport` carries, each
    at most once: the one renderer behind ``repro.tools chaos`` and
    ``repro.tools observe``."""
    sections = [
        render_table(f"fault plan (seed={report.config.seed})", ["event"],
                     [[line] for line in report.plan_lines]),
        render_table("injected faults", ["event"], report.fault_rows()),
        render_table("reactions", ["metric family", "total"],
                     report.reaction_rows()),
    ]
    if report.timeseries is not None:
        sections += [
            render_timeseries(
                "probe op series (scraped)",
                [s for s in report.timeseries["series"]
                 if s["name"].startswith("cliquemap_probe_ops_total")]),
            render_sli("SLIs (prober vantage)", report.sli),
            render_alerts("SLO alert transitions", report.alerts),
        ]
    if report.sor_stats is not None:
        stats = report.sor_stats
        sections.append(render_table(
            "miss path (read-through coordinator)", ["stat", "value"],
            [["fetches", f"{stats['coordinator']['fetches']}"],
             ["coalesced", f"{stats['coordinator']['coalesced']}"],
             ["backfill shed", f"{stats['backfill_shed']:g}"],
             ["SoR reads", f"{stats['sor_reads']}"],
             ["SoR writes", f"{stats['sor_writes']}"],
             ["SoR throttled", f"{stats['sor_throttled']}"],
             ["cold-key hits", f"{stats['cold_reads']['hits']}"],
             ["cold-key bad hits", f"{stats['cold_reads']['bad_hits']}"]]))
    if report.resize_stats is not None:
        ctl = report.resize_stats["controller"]
        rows = [["grows", f"{ctl['grows']}"],
                ["shrinks", f"{ctl['shrinks']}"],
                ["aborted", f"{ctl['aborted']}"],
                ["backfill sweeps", f"{ctl['sweeps']}"],
                ["entries backfilled", f"{ctl['entries_backfilled']}"],
                ["entries purged", f"{ctl['entries_purged']}"],
                ["shadow writes",
                 f"{report.resize_stats['shadow_writes']:g}"],
                ["writer SET failures",
                 f"{report.foreground['writer_set_failures']}"],
                ["reader inquorate retries",
                 f"{report.foreground['reader_inquorate']}"]]
        if report.resize_stats["pressure"] is not None:
            rows.append(["pressure writes",
                         f"{report.resize_stats['pressure']['writes']}"])
        sections.append(render_table(
            f"resize ({report.config.scenario or 'explicit plan'})",
            ["stat", "value"], rows))
    if report.population_stats is not None:
        stats = report.population_stats
        sections.append(render_table(
            f"client population (N={stats['modeled_clients']})",
            ["stat", "value"],
            [["modeled clients", f"{stats['modeled_clients']}"],
             ["driver processes", f"{stats['drivers']}"],
             ["offered key-ops", f"{stats['offered']}"],
             ["delivered", f"{stats['delivered']}"],
             ["thinned (sampled out)", f"{stats['thinned']}"],
             ["shed (outstanding cap)", f"{stats['shed']}"],
             ["shed rate", f"{stats['shed_rate']:.4f}"],
             ["hit rate", f"{stats['hit_rate']:.4f}"],
             ["errors", f"{stats['errors']}"]]))
    files = [f"wrote {path}" for path in report.exports]
    if report.bundle:
        files.append(f"postmortem bundle: {report.bundle}")
    if files:
        sections.append("\n".join(files))
    violations = [f"BAD HIT: key {i} returned unwritten value {value!r}"
                  for i, value in report.bad_hits]
    violations += [f"UNRECOVERED: key {i} -> {status}" +
                   ("" if value is None else f" (value={value!r})")
                   for i, status, value in report.unrecovered]
    violations += [f"DIVERGED: key {i} replicas disagree after settle"
                   for i in report.diverged]
    if violations:
        sections.append("\n".join(violations))
    return "\n\n".join(sections)


def _labels_str(labels) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)

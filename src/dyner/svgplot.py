"""Minimal SVG 1.1 line charts: polylines plus axes, no plotting dependency.

A curve of one point is drawn as a dot.
"""

__all__ = ["write_line_svg"]

_PALETTE = ("#000000", "#cc0000", "#0044cc", "#008844", "#a05a00")
_WIDTH, _HEIGHT = 720, 480


def _ticks(lo: float, hi: float, count: int = 5):
    span = hi - lo
    return [lo + span * i / (count - 1) for i in range(count)]


def write_line_svg(path, xs, curves: dict, title="", x_label="", y_label="") -> None:
    """Write an SVG document with one polyline per named curve over shared x values
    (one dot per curve when there is one x value)."""
    xs = [float(x) for x in xs]
    if not xs or not curves:
        raise ValueError("need x values and at least one curve")
    for name, ys in curves.items():
        if len(ys) != len(xs):
            raise ValueError(f"curve {name!r} length does not match x values")
    all_y = [float(y) for ys in curves.values() for y in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    left, right, top, bottom = 64, 24, 36, 48
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#333333" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14" font-family="sans-serif">{title}</text>'
        )
    for xv in _ticks(x_lo, x_hi):
        px = sx(xv)
        parts.append(
            f'<line x1="{px:.2f}" y1="{top + plot_h}" x2="{px:.2f}" '
            f'y2="{top + plot_h + 4}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xv:.4g}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        py = sy(yv)
        parts.append(
            f'<line x1="{left - 4}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{yv:.4g}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle" font-size="12" font-family="sans-serif">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif" '
            f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{y_label}</text>'
        )
    for idx, (name, ys) in enumerate(curves.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(xs) == 1:  # a polyline of one point renders nothing
            parts.append(
                f'<circle cx="{sx(xs[0]):.2f}" cy="{sy(float(ys[0])):.2f}" r="3" '
                f'fill="{color}"/>'
            )
        else:
            points = " ".join(f"{sx(x):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>'
            )
        ly = top + 16 + 16 * idx
        lx = left + plot_w - 120
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

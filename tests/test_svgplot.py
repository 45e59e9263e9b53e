import re

import pytest

from dyner.svgplot import write_line_svg


@pytest.mark.parametrize("xs,curves,message", [
    ([0.0, 1.0], {}, "at least one curve"),
    ([], {"a": []}, "at least one curve"),
    ([0.0, 1.0], {"a": [1.0]}, "curve 'a' length does not match"),
], ids=["no-curves", "no-x-values", "mismatched-lengths"])
def test_write_line_svg_rejects_bad_input(xs, curves, message, tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match=message):
        write_line_svg(path, xs, curves)
    assert not path.exists()


@pytest.mark.parametrize("xs,curves,dots,lines", [
    ([0.3], {"a": [1.0], "b": [2.0]}, 2, 0),
    ([0.3], {"a": [1.0]}, 1, 0),  # one point on both axes' padded ranges
    ([0.0, 1.0], {"a": [1.0, 2.0], "b": [0.5, 0.5]}, 0, 2),
], ids=["two-one-point-curves", "one-point", "two-point-curves"])
def test_every_curve_leaves_one_visible_mark(xs, curves, dots, lines, tmp_path):
    path = tmp_path / "plot.svg"
    write_line_svg(path, xs, curves)
    svg = path.read_text()
    marks = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="3" fill="(#\w+)"/>', svg)
    assert len(marks) == dots and svg.count("<polyline") == lines
    # each dot in its curve's color, inside the plot area
    assert [color for _, _, color in marks] == ["#000000", "#cc0000"][:dots]
    assert all(64 <= float(x) <= 696 and 36 <= float(y) <= 432 for x, y, _ in marks)

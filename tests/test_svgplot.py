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

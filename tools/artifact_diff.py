"""Say how far each changed artifact moved between two artifact trees.

    python3 tools/artifact_diff.py BEFORE AFTER

BEFORE and AFTER are directories of ``<config>/<file>`` artifacts, such as
``tools/artifact_hashes.py --keep`` leaves. For each file that differs, one
line gives its largest relative difference |a - b| / max(|a|, |b|) over its
numbers, the pair of numbers at which it occurs, and its largest |a - b|
scaled by the largest |a| of the file (a number near zero may move far in
relative terms and little against the file's scale):

- a ``.qsmp`` container is compared through ``qsmp.storage.load_container``,
  its metadata values and every entry of its arrays;
- any other file is read as text, and its numbers are the floats and
  integers in it (CSV, summary and JSON alike).

Two NaNs at the same place are equal. A difference that is not numeric (a
text that differs apart from its numbers, arrays of other shapes, a file on
one side only) is printed as it is, up to a few lines. Exits 0 when every
file is byte-identical, else 1.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from qsmp.storage import MAGIC, load_container  # noqa: E402

#: A number in text: an optional sign, digits with an optional fraction or a
#: fraction alone, an optional exponent; or nan and inf, as Python prints them.
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)\b")
#: Lines of a non-numeric difference printed at most.
_SHOWN = 5


def relative_gap(a: np.ndarray, b: np.ndarray) -> tuple:
    """(largest |a - b| / max(|a|, |b|), a, b at that entry, largest |a - b|
    / max |a| over the finite a) over two arrays of one shape; 0 where the
    two are equal, NaNs at the same place included."""
    a, b = np.ravel(a).astype(np.float64), np.ravel(b).astype(np.float64)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0, None, None, 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        change = np.where(same, 0.0, np.abs(a - b))
        gap = np.where(same, 0.0, change / np.maximum(np.abs(a), np.abs(b)))
    gap = np.where(np.isnan(gap), np.inf, gap)  # a NaN, or an infinity, on one side only
    change = np.where(np.isnan(change), np.inf, change)
    j = int(np.argmax(gap))
    finite = np.abs(a[np.isfinite(a)])
    scale = finite.max() if finite.size else 0.0
    return float(gap[j]), float(a[j]), float(b[j]), float(change.max() / scale) if scale > 0 else np.inf


def _numbers(text: str) -> tuple:
    """(the text with each number replaced by '#', its numbers)."""
    values = [float(m) for m in _NUMBER.findall(text)]
    return _NUMBER.sub("#", text), np.array(values)


def _container_values(path: str) -> tuple:
    """(names and shapes, all values) of a container, in its order."""
    metadata, arrays = load_container(path)
    layout = [(name, ()) for name in metadata] + [(name, a.shape) for name, a in arrays.items()]
    values = [np.array(list(metadata.values()), dtype=np.float64)] + [a.ravel() for a in arrays.values()]
    return layout, np.concatenate(values)


def _text_lines(a: str, b: str) -> list:
    """The first differing lines of two texts, as '- line' and '+ line'."""
    lines = []
    for old, new in zip(a.splitlines(), b.splitlines()):
        if old != new:
            lines += [f"  - {old}", f"  + {new}"]
        if len(lines) >= 2 * _SHOWN:
            break
    return lines or ["  (the texts differ in their length only)"]


def compare(before: str, after: str) -> str | None:
    """None if the two files are byte-identical, else one report line (and
    the differing text, where the difference is not numeric)."""
    with open(before, "rb") as one, open(after, "rb") as other:
        raw_a, raw_b = one.read(), other.read()
    if raw_a == raw_b:
        return None
    if raw_a.startswith(MAGIC) and raw_b.startswith(MAGIC):
        (layout_a, a), (layout_b, b) = _container_values(before), _container_values(after)
        if layout_a != layout_b:
            return f"container layout {layout_a} -> {layout_b}"
    else:
        text_a, text_b = raw_a.decode("utf-8", "replace"), raw_b.decode("utf-8", "replace")
        (skeleton_a, a), (skeleton_b, b) = _numbers(text_a), _numbers(text_b)
        if skeleton_a != skeleton_b or a.shape != b.shape:
            return "\n".join(["not only in its numbers:"] + _text_lines(text_a, text_b))
    gap, at_a, at_b, scaled = relative_gap(a, b)
    if at_a is None:
        return "the same numbers, other bytes"
    return (
        f"max relative change {gap:.3g} ({at_a!r} -> {at_b!r}), "
        f"max change / max |value| {scaled:.3g}, over {a.size} numbers"
    )


def _files(root: str) -> set:
    return {
        os.path.relpath(os.path.join(path, name), root)
        for path, _, names in os.walk(root)
        for name in names
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="artifact tree of the parent")
    parser.add_argument("after", help="artifact tree of the change")
    args = parser.parse_args(argv)
    files_a, files_b = _files(args.before), _files(args.after)
    changed = 0
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            report = "only in " + (args.before if name in files_a else args.after)
        else:
            report = compare(os.path.join(args.before, name), os.path.join(args.after, name))
        if report is not None:
            changed += 1
            print(f"{name}: {report}")
    print(f"{changed} of {len(files_a | files_b)} files differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

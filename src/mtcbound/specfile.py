"""On-disk category files.

One JSON document per category with up to three sections (fusion ring,
modular data, metric group) plus a name and free-form notes.  Sections
are optional but at least one must be present.  When both a metric
group and modular data appear the former must regenerate the latter
exactly; that (like all semantic checks) is reported by the validation
pipeline rather than raised at load time, so a tampered file still has
its most specific failure named.

`json_text` is the one JSON writer: category files and every CLI JSON
document go through it.  Its bytes are those of
`json.dumps(obj, sort_keys=True, indent=2)` plus a trailing newline
(sorted keys, two-space indent, ASCII only), written without that
function's pure-Python indenting encoder.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

from .cyclotomic import _digit_limit_error
from .errors import InputError
from .fusion import FusionRing
from .modular import ModularData
from .pointed import MetricGroup, matches_modular_data, metric_modular_data
from .report import ValidationReport


@dataclass(frozen=True)
class CategorySpecFile:
    name: str
    ring: FusionRing | None = None
    modular: ModularData | None = None
    metric: MetricGroup | None = None
    notes: tuple = ()

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise InputError("category file needs a nonempty name")
        if self.ring is None and self.modular is None and self.metric is None:
            raise InputError("category file needs at least one section")
        notes = tuple(self.notes)
        bad = [n for n in notes if not isinstance(n, str)]
        if bad:
            raise InputError(f"notes must be strings, got {bad[0]!r}")
        object.__setattr__(self, "notes", notes)

    def cross_section_checks(self) -> ValidationReport:
        """Consistency between sections, reported (not raised) so that a
        tampered file still gets its section-local failures named first."""
        report = ValidationReport(f"{self.name}: cross-section consistency")
        if self.metric is not None and self.modular is not None:
            report.add(
                "metric_regenerates_modular",
                matches_modular_data(self.metric, self.modular),
            )
        if self.ring is not None and self.modular is not None and self.modular.ring is not None:
            report.add(
                "fusion_section_matches_modular_ring",
                self.ring.same_fusion(self.modular.ring),
            )
        return report

    def effective_ring(self) -> FusionRing | None:
        if self.ring is not None:
            return self.ring
        if self.modular is not None:
            return self.modular.ring
        return None

    def effective_modular(self) -> ModularData | None:
        if self.modular is not None:
            return self.modular
        if self.metric is not None:
            return metric_modular_data(self.metric)
        return None

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "notes": list(self.notes)}
        if self.ring is not None:
            out["fusion_ring"] = self.ring.to_json_dict()
        if self.modular is not None:
            out["modular_data"] = self.modular.to_json_dict()
        if self.metric is not None:
            out["metric_group"] = self.metric.to_json_dict()
        return out

    @staticmethod
    def from_json_dict(obj) -> "CategorySpecFile":
        if not isinstance(obj, dict):
            raise InputError("category file must be a JSON object")
        unknown = set(obj) - {"name", "notes", "fusion_ring", "modular_data", "metric_group"}
        if unknown:
            raise InputError(f"unknown sections: {sorted(unknown)}")
        ring = modular = metric = None
        if "fusion_ring" in obj:
            ring = FusionRing.from_json_dict(obj["fusion_ring"])
        if "modular_data" in obj:
            modular = ModularData.from_json_dict(obj["modular_data"])
        if "metric_group" in obj:
            metric = MetricGroup.from_json_dict(obj["metric_group"])
        notes = obj.get("notes", [])
        if not isinstance(notes, list):
            raise InputError("notes must be a list of strings")
        return CategorySpecFile(
            name=obj.get("name", ""),
            ring=ring,
            modular=modular,
            metric=metric,
            notes=tuple(notes),
        )

    def dumps(self) -> str:
        return json_text(self.to_json_dict())

    def save(self, path) -> None:
        # the pieces, not their join: a large file is never held twice
        with _gc_paused(), open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_json_pieces(self.to_json_dict()))

    @staticmethod
    def load(path) -> "CategorySpecFile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
        try:
            with _gc_paused():
                # the parsed tree is freed before the collector resumes
                return CategorySpecFile.from_json_dict(_json_tree(text, path))
        except RecursionError as exc:
            raise InputError(f"{path} is nested too deeply to read") from exc


def _json_tree(text: str, path):
    """`json.loads`, its refusals raised as InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the int-string digit limit
        raise _digit_limit_error() from exc


@contextmanager
def _gc_paused():
    """The cyclic collector paused while a JSON tree is built, read or
    written.  Such a tree holds no cycles, and on a large file the
    collector's passes over millions of new containers took longer than
    the parse itself."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_STDLIB_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def json_text(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte,
    for an acyclic document."""
    return "".join(_json_pieces(obj))


def _json_pieces(obj) -> list:
    """The pieces of `json_text(obj)`, in order.  A dict that is an array
    item is written once per (id, depth) within one call, so the scalar
    objects that `to_json_dict` shares cost one lookup after their
    first use.  Arrays of exact str leaves are one C-level map; arrays
    and tables of exact int leaves are one pass of the C encoder,
    re-indented; tuples are written as arrays.  Anything else (floats,
    dicts with a non-str key, subclasses) is handed whole to the stdlib
    encoder with the same settings and re-indented by replacing each
    newline, which is exact because an encoded JSON string never holds
    a raw newline."""
    out: list = []
    memos: defaultdict = defaultdict(dict)  # depth -> {id(dict): its text}

    def write(x, depth: int) -> None:
        kind = type(x)
        if kind is str:
            out.append(_quote(x))
        elif kind is int:
            out.append(int.__repr__(x))
        elif kind is list or kind is tuple:
            write_array(x, depth)
        elif kind is dict and all(type(k) is str for k in x):
            write_object(x, depth)
        elif x is None:
            out.append("null")
        elif x is True:
            out.append("true")
        elif x is False:
            out.append("false")
        else:
            out.append(_STDLIB_ENCODER.encode(x).replace("\n", "\n" + "  " * depth))

    def write_object(obj: dict, depth: int) -> None:
        if not obj:
            out.append("{}")
            return
        pad = "\n" + "  " * (depth + 1)
        sep = "{" + pad
        for key in sorted(obj):
            out.append(f"{sep}{_quote(key)}: ")
            write(obj[key], depth + 1)
            sep = "," + pad
        out.append("\n" + "  " * depth + "}")

    def write_array(items, depth: int) -> None:
        if not items:
            out.append("[]")
            return
        inner = depth + 1
        pad = "\n" + "  " * inner
        end = "\n" + "  " * depth + "]"
        kinds = set(map(type, items))
        if kinds == {int}:
            # the C encoder's ", " separators become indented ones; an
            # integer's text holds no comma, space or bracket
            out.append(f"[{pad}{json.dumps(items)[1:-1].replace(', ', ',' + pad)}{end}")
        elif kinds == {list} and all(items) and set(map(type, chain.from_iterable(items))) == {int}:
            # a table of integer rows, the same way
            row_pad = pad + "  "
            body = json.dumps(items)[2:-2]
            body = body.replace("], [", f"{pad}],{pad}[{row_pad}").replace(", ", "," + row_pad)
            out.append(f"[{pad}[{row_pad}{body}{pad}]{end}")
        elif kinds == {str}:
            out.append(f"[{pad}{(',' + pad).join(map(_quote, items))}{end}")
        else:
            memo = memos[inner]
            texts = list(map(memo.get, map(id, items)))
            if None not in texts:  # every item a dict already written at this depth
                out.append(f"[{pad}{(',' + pad).join(texts)}{end}")
                return
            sep = "[" + pad
            for x in items:
                out.append(sep)
                sep = "," + pad
                text = memo.get(id(x))
                if text is not None:
                    out.append(text)
                elif type(x) is dict:
                    start = len(out)
                    write(x, inner)
                    text = memo[id(x)] = "".join(out[start:])
                    out[start:] = [text]
                else:
                    write(x, inner)
            out.append(end)

    write(obj, 0)
    out.append("\n")
    return out

"""On-disk category files.

One JSON document per category with up to three sections (fusion ring,
modular data, metric group) plus a name and free-form notes.  Sections
are optional but at least one must be present.  When both a metric
group and modular data appear the former must regenerate the latter
exactly; that (like all semantic checks) is reported by the validation
pipeline rather than raised at load time, so a tampered file still has
its most specific failure named.  Serialization is deterministic:
sorted keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def load(path) -> "CategorySpecFile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc
        return CategorySpecFile.from_json_dict(obj)

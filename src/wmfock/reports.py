"""Verification report containers with deterministic JSON/CSV rendering.

Every verification entry point returns a Report: a list of named instances,
each carrying a pass flag and a discrepancy that is either the string
"exact-0" (proven zero in exact arithmetic) or a float bound.  Rendering is
byte-deterministic for a fixed input except for the runtimeMillis field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

from .scalars import GaussianRational, to_json as scalar_json

EXACT_ZERO = "exact-0"


def jsonify(obj: Any) -> Any:
    """Recursively convert scalars/tuples into JSON-ready values."""
    if isinstance(obj, (Fraction, GaussianRational)):
        return scalar_json(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


@dataclass
class Instance:
    id: str
    passed: bool
    discrepancy: Any = None  # "exact-0" | float | None
    details: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"id": self.id, "pass": self.passed}
        if self.discrepancy is not None:
            out["discrepancy"] = jsonify(self.discrepancy)
        if self.details:
            out["details"] = jsonify(self.details)
        return out


@dataclass
class Report:
    suite: str
    config: Dict[str, Any] = field(default_factory=dict)
    instances: List[Instance] = field(default_factory=list)
    runtime_millis: Optional[int] = None

    def add(self, instance: Instance) -> None:
        self.instances.append(instance)

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.instances)

    def summary(self) -> Dict[str, int]:
        ok = sum(1 for i in self.instances if i.passed)
        return {"total": len(self.instances), "passed": ok, "failed": len(self.instances) - ok}

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "suite": self.suite,
            "config": jsonify(self.config),
            "instances": [i.to_json() for i in self.instances],
            "summary": self.summary(),
        }
        if self.runtime_millis is not None:
            out["runtimeMillis"] = self.runtime_millis
        return out

    def render(self) -> str:
        return json.dumps(self.to_json(), indent=2, allow_nan=False)


def csv_render(headers: List[str], rows: List[List[Any]]) -> str:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"

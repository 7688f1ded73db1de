"""Structured check reports for the verification CLI.

Documents are deterministic for a fixed (seed, tolerance, format): rows keep
insertion order, floats use the shortest round-trip repr, and no timestamps
enter the payload (wall time goes to stderr only).
"""

from __future__ import annotations

import json
from collections import namedtuple
from types import SimpleNamespace

SCHEMA_VERSION = 1


class CheckRow(namedtuple("CheckRow", "name residual tol passed note",
                          defaults=("",))):
    __slots__ = ()

    @staticmethod
    def from_residual(name: str, residual: float, tol: float,
                      note: str = "") -> "CheckRow":
        return CheckRow(name, float(residual), float(tol),
                        bool(residual <= tol), note)

    def as_dict(self) -> dict:
        out = {"name": self.name, "residual": self.residual,
               "tol": self.tol, "pass": self.passed}
        if self.note:
            out["note"] = self.note
        return out


class RunReport(SimpleNamespace):
    def __init__(self, command: str, parameters: dict | None = None,
                 rows: list | None = None, extra: dict | None = None):
        super().__init__(command=command,
                         parameters={} if parameters is None else parameters,
                         rows=[] if rows is None else rows,
                         extra={} if extra is None else extra)

    def add(self, name: str, residual: float, tol: float, note: str = "") -> None:
        self.rows.append(CheckRow.from_residual(name, residual, tol, note))

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def exit_status(self) -> int:
        return 0 if self.all_pass else 1

    def as_dict(self) -> dict:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "parameters": dict(sorted(self.parameters.items())),
            "checks": [r.as_dict() for r in self.rows],
            "pass": self.all_pass,
        }
        if self.extra:
            doc["extra"] = self.extra
        return doc

    def render(self, fmt: str = "json") -> str:
        if fmt == "json":
            return json.dumps(self.as_dict(), indent=2, sort_keys=False,
                              default=_encode)
        if fmt == "jsonl":
            lines = [json.dumps({"schema": SCHEMA_VERSION,
                                 "command": self.command,
                                 "parameters": dict(sorted(self.parameters.items()))},
                                default=_encode)]
            lines.extend(json.dumps(r.as_dict(), default=_encode)
                         for r in self.rows)
            lines.append(json.dumps({"pass": self.all_pass}))
            return "\n".join(lines)
        raise ValueError(f"unknown format: {fmt}")


def _encode(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {obj!r}")

"""Structured pass/fail records shared by every verification suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail"
    witness: str = None

    def to_dict(self):
        return {"name": self.name, "status": self.status, "witness": self.witness}


@dataclass
class VerificationReport:
    suite: str
    params: dict
    mode: str
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    def record(self, name: str, ok: bool, witness: str = None):
        self.checks.append(Check(name, "pass" if ok else "fail", None if ok else witness))

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if c.status != "pass"]

    def to_dict(self):
        return {
            "suite": self.suite,
            "params": self.params,
            "mode": self.mode,
            "checks": [c.to_dict() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


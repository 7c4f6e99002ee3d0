"""Structured verification reports with replay provenance.

Every randomized run records its field, seed and asset version so that any
failure can be reproduced exactly.  Serialization is deterministic: checks
are sorted by id and the JSON encoder uses sorted keys and fixed separators,
so identical runs yield byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class Check:
    id: str
    passed: bool
    detail: str = ""


def failed(checks: Sequence[Check]) -> List[Check]:
    return [c for c in checks if not c.passed]


@dataclass
class VerificationReport:
    command: str
    field: dict  # fields.field_echo: kind, prime, rng algorithm
    seed: Optional[int] = None
    asset_version: Optional[str] = None
    trials: int = 0
    checks: List[Check] = dc_field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, passed: bool, detail: str = ""):
        self.checks.append(Check(check_id, passed, detail))

    def failures(self) -> List[Check]:
        return failed(self.checks)

    def to_dict(self) -> dict:
        ids = [c.id for c in self.checks]
        if len(set(ids)) != len(ids):
            raise ReportError("check ids must be unique within a report")
        return {
            "command": self.command,
            "field": self.field,
            "seed": self.seed,
            "asset_version": self.asset_version,
            "trials": self.trials,
            "checks": [
                {"id": c.id, "passed": c.passed, "detail": c.detail}
                for c in sorted(self.checks, key=lambda c: c.id)
            ],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        obj = json.loads(text)
        rep = cls(
            command=obj["command"],
            field=obj["field"],
            seed=obj["seed"],
            asset_version=obj["asset_version"],
            trials=obj["trials"],
            checks=[
                Check(c["id"], c["passed"], c["detail"]) for c in obj["checks"]
            ],
        )
        if rep.overall != obj["overall"]:
            raise ReportError("overall flag does not match the checks")
        return rep

    def summary(self) -> str:
        bad = self.failures()
        head = (
            f"{self.command}: {len(self.checks)} checks over {self.trials} trial(s), "
            f"{'all passed' if not bad else f'{len(bad)} FAILED'}"
        )
        lines = [head]
        for c in bad[:20]:
            lines.append(f"  FAIL {c.id}: {c.detail}")
        if len(bad) > 20:
            lines.append(f"  ... and {len(bad) - 20} more failures")
        return "\n".join(lines)


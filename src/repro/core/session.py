"""Analysis sessions with a provenance log.

Every INDICE run records what each tier did — rows in / rows out, methods
and parameters applied, artifacts produced — so a dashboard can explain
its own numbers and experiments can audit the pipeline.  The log is
ordinal (step counter), so the *sequence* of steps stays reproducible;
each step may additionally carry wall-clock timing counters
(``elapsed_s`` and the derived ``rows_per_s``), which make every stage
report its throughput without perturbing the ordinal record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ProvenanceStep", "ProvenanceLog"]


@dataclass(frozen=True)
class ProvenanceStep:
    """One recorded pipeline step."""

    index: int
    stage: str  # "preprocessing" | "selection" | "analytics" | "visualization"
    action: str
    detail: dict = field(default_factory=dict)
    #: Wall-clock seconds the step took (None when not timed).
    elapsed_s: float | None = None
    #: Rows processed per second (None when not timed or row count unknown).
    rows_per_s: float | None = None

    def describe(self) -> str:
        """Human-readable multi-line description."""
        rendered = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        out = f"[{self.index}] {self.stage}/{self.action}" + (
            f" ({rendered})" if rendered else ""
        )
        if self.elapsed_s is not None:
            timing = f"{self.elapsed_s * 1000:.0f} ms"
            if self.rows_per_s is not None:
                timing += f", {self.rows_per_s:.0f} rows/s"
            out += f" [{timing}]"
        return out


@dataclass
class ProvenanceLog:
    """Append-only record of an analysis session."""

    steps: list[ProvenanceStep] = field(default_factory=list)

    def record(
        self,
        stage: str,
        action: str,
        elapsed_s: float | None = None,
        rows_per_s: float | None = None,
        **detail,
    ) -> ProvenanceStep:
        """Append one step to the log and return it.

        ``elapsed_s`` / ``rows_per_s`` are reserved timing counters (kept
        out of ``detail`` so tooling can aggregate them uniformly).
        """
        step = ProvenanceStep(
            len(self.steps), stage, action, detail, elapsed_s, rows_per_s
        )
        self.steps.append(step)
        return step

    def total_elapsed(self, stage: str | None = None) -> float:
        """Sum of the timed steps' wall-clock seconds (optionally per stage)."""
        return sum(
            s.elapsed_s
            for s in self.steps
            if s.elapsed_s is not None and (stage is None or s.stage == stage)
        )

    def stages(self) -> list[str]:
        """Distinct stages in execution order."""
        seen: list[str] = []
        for step in self.steps:
            if step.stage not in seen:
                seen.append(step.stage)
        return seen

    def for_stage(self, stage: str) -> list[ProvenanceStep]:
        """The steps recorded under *stage*, in order."""
        return [s for s in self.steps if s.stage == stage]

    def degradations(self) -> list[ProvenanceStep]:
        """Every recorded degradation (graceful fallbacks under faults).

        A pipeline run under fault injection must satisfy: outputs are
        bit-identical to the fault-free run, *or* this list is non-empty.
        Degradations are never silent.
        """
        return [s for s in self.steps if s.action == "degradation"]

    def describe(self) -> str:
        """Human-readable multi-line description."""
        return "\n".join(s.describe() for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

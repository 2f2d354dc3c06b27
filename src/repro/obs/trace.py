"""Structured query traces: what ``FleXPath.query(..., trace=True)`` returns.

A :class:`QueryTrace` bundles the evaluation outcome with the decomposed
cost of producing it: wall-clock total, per-phase span aggregates (seed /
extend / checks / project / prune / sort / bucket), the IR engine's cache
and postings counters, and one :class:`LevelTrace` per plan execution (DPO
runs one per relaxation level, SSO/Hybrid one per restart).

The same structure backs the CLI's ``explain --analyze`` rendering and the
per-phase aggregates the benchmark harness embeds in its JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Executor phases in pipeline order; rendering and aggregation follow it.
#: ``twig`` is the holistic twig-join operator's stack-merge pass (strict
#: runs of a plan lowered to it); binary-pipeline runs never emit it.
PHASES = ("seed", "extend", "twig", "checks", "dedup", "project", "prune",
          "sort", "bucket", "collect")


@dataclass
class LevelTrace:
    """Phase spans + repaired counters for one plan execution."""

    label: str
    spans: dict  # phase name -> {"seconds": float, "calls": int}
    stats: object  # the run's ExecutionStats
    operators: tuple = ()  # per-operator est/actual dicts (lowered plans)

    def seconds(self, phase):
        entry = self.spans.get(phase)
        return entry["seconds"] if entry else 0.0

    def total_seconds(self):
        return sum(entry["seconds"] for entry in self.spans.values())

    def as_dict(self):
        return {
            "label": self.label,
            "spans": self.spans,
            "stats": self.stats.as_dict(),
            "operators": [dict(op) for op in self.operators],
        }


@dataclass
class QueryTrace:
    """Everything observed while evaluating one top-K query."""

    result: object  # the TopKResult
    total_seconds: float
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    levels: list = field(default_factory=list)  # LevelTrace per plan run
    trace_id: str = None  # set when the run exported spans to a sink

    # -- convenience passthroughs -------------------------------------------

    @property
    def answers(self):
        return self.result.answers

    @property
    def algorithm(self):
        return self.result.algorithm

    # -- aggregation ---------------------------------------------------------

    def phase_aggregates(self):
        """Per-phase totals across every plan execution, pipeline-ordered.

        Returns ``{phase: {"seconds": float, "calls": int}}`` including only
        phases that actually ran; this is the dict the benchmark harness
        embeds under ``extra_info["phases"]``.
        """
        aggregates = {}
        for name in PHASES:
            entry = self.spans.get(name)
            if entry:
                aggregates[name] = dict(entry)
        return aggregates

    def counter_totals(self):
        """All counters (IR engine, executor) as one flat dict."""
        totals = dict(self.counters)
        for level in self.levels:
            for key, value in level.stats.as_dict().items():
                totals["executor." + key] = totals.get(
                    "executor." + key, 0
                ) + value
        return totals

    def as_dict(self):
        """JSON-safe dict mirror of the whole trace."""
        return {
            "trace_id": self.trace_id,
            "algorithm": self.result.algorithm,
            "k": self.result.k,
            "scheme": getattr(self.result.scheme, "name", str(self.result.scheme)),
            "answers": len(self.result.answers),
            "total_seconds": self.total_seconds,
            "phases": self.phase_aggregates(),
            "counters": self.counter_totals(),
            "levels": [level.as_dict() for level in self.levels],
        }

    # -- rendering -----------------------------------------------------------

    def format(self):
        """Human-readable per-phase time/counter breakdown (CLI output)."""
        lines = [
            "algorithm: %s   K=%d   scheme: %s   answers: %d"
            % (
                self.result.algorithm,
                self.result.k,
                getattr(self.result.scheme, "name", self.result.scheme),
                len(self.result.answers),
            ),
            "total: %.3f ms   plan executions: %d"
            % (self.total_seconds * 1e3, len(self.levels)),
            "",
            "phase breakdown:",
        ]
        phases = self.phase_aggregates()
        for name, entry in phases.items():
            share = (
                entry["seconds"] / self.total_seconds
                if self.total_seconds > 0
                else 0.0
            )
            lines.append(
                "  %-8s %9.3f ms  %5d call(s)  %5.1f%%"
                % (name, entry["seconds"] * 1e3, entry["calls"], share * 100)
            )
        if not phases:
            lines.append("  (no phases recorded)")
        other = {
            name: entry
            for name, entry in self.spans.items()
            if name not in PHASES
        }
        if other:
            lines.append("")
            lines.append("other spans:")
            for name in sorted(other):
                entry = other[name]
                lines.append(
                    "  %-24s %9.3f ms  %5d call(s)"
                    % (name, entry["seconds"] * 1e3, entry["calls"])
                )
        counters = self.counter_totals()
        if counters:
            lines.append("")
            lines.append("counters:")
            for name in sorted(counters):
                lines.append("  %-28s %d" % (name, counters[name]))
        if self.levels:
            lines.append("")
            lines.append("per-level breakdown:")
            for level in self.levels:
                stats = level.stats
                lines.append(
                    "  %-18s %9.3f ms  produced=%d pruned=%d deduped=%d"
                    " max_intermediate=%d"
                    % (
                        level.label,
                        level.total_seconds() * 1e3,
                        stats.tuples_produced,
                        stats.tuples_pruned,
                        stats.answers_deduped,
                        stats.max_intermediate,
                    )
                )
                for op in level.operators:
                    estimate, actual = op["estimate"], op.get("actual")
                    lines.append(
                        "    %-15s %-10s est=%-10s act=%-8s %s"
                        % (
                            op["kind"],
                            op["var"],
                            "-" if estimate is None else "%.1f" % estimate,
                            "-" if actual is None else actual,
                            op["detail"],
                        )
                    )
        return "\n".join(lines)


def build_query_trace(result, tracer, total_seconds):
    """Assemble a :class:`QueryTrace` from a finished traced evaluation."""
    snapshot = tracer.snapshot()
    return QueryTrace(
        result=result,
        total_seconds=total_seconds,
        spans=snapshot["spans"],
        counters=snapshot["counters"],
        levels=list(result.traces),
        trace_id=tracer.trace_id,
    )

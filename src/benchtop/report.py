"""Success-rate aggregation over campaign factors.

Rates are percentages (100 * successes / trials) grouped by one factor.
The average column is the unweighted mean over the factor levels actually
present, computed on unrounded rates; only display formatting rounds, and
it rounds half away from zero to one decimal so 0.15 prints as 0.2.

``trend_check`` expects rates not to rise along an ordered factor, with a
slack allowance, for wiring into exit codes: a policy should not do better
as scenes get more cluttered, so it fails the check only if its rate rises
by more than the slack from some level to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

from .campaign import EnvVariant, InstructionKind, SourceMix
from .errors import EmptyResults, UsageError
from .runner import EpisodeResult


class Factor(str, Enum):
    OBJECT_COUNT = "object_count"
    INSTRUCTION_KIND = "instruction_kind"
    SOURCE_MIX = "source_mix"
    ENV_VARIANT = "env_variant"


_CATEGORICAL_ORDER: dict[Factor, tuple[str, ...]] = {
    Factor.INSTRUCTION_KIND: tuple(k.value for k in InstructionKind),
    Factor.SOURCE_MIX: tuple(s.value for s in SourceMix),
    Factor.ENV_VARIANT: tuple(v.value for v in EnvVariant),
}

DEFAULT_TREND_SLACK = 3.0


def _level_of(result: EpisodeResult, factor: Factor):
    if factor is Factor.OBJECT_COUNT:
        return result.object_count
    if factor is Factor.INSTRUCTION_KIND:
        return result.instruction_kind.value
    if factor is Factor.SOURCE_MIX:
        return result.source_mix.value
    return result.env_variant.value


@dataclass(frozen=True)
class ReportRow:
    policy_id: str
    rates: tuple[float | None, ...]
    avg: float


@dataclass(frozen=True)
class ReportTable:
    group_by: Factor
    levels: tuple
    rows: tuple[ReportRow, ...]


def aggregate(results, group_by: Factor) -> ReportTable:
    results = list(results)
    if not results:
        raise EmptyResults("no episode results to aggregate")
    counts: dict[str, dict[object, list[int]]] = {}
    present: set = set()
    for r in results:
        level = _level_of(r, group_by)
        present.add(level)
        bucket = counts.setdefault(r.policy_id, {}).setdefault(level, [0, 0])
        bucket[0] += 1 if r.success else 0
        bucket[1] += 1

    if group_by is Factor.OBJECT_COUNT:
        levels = tuple(sorted(present))
    else:
        levels = tuple(lv for lv in _CATEGORICAL_ORDER[group_by] if lv in present)

    rows = []
    for policy_id in sorted(counts):
        per_level = counts[policy_id]
        rates: list[float | None] = []
        for level in levels:
            bucket = per_level.get(level)
            if bucket is None:
                rates.append(None)
            else:
                rates.append(100.0 * bucket[0] / bucket[1])
        known = [r for r in rates if r is not None]
        avg = sum(known) / len(known) if known else 0.0
        rows.append(ReportRow(policy_id=policy_id, rates=tuple(rates), avg=avg))
    return ReportTable(group_by=group_by, levels=levels, rows=tuple(rows))


def format_rate(value: float | None, empty: str = "") -> str:
    if value is None:
        return empty
    return str(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


class ReportFormat(str, Enum):
    CSV = "csv"
    MARKDOWN = "markdown"


def emit(table: ReportTable, fmt: ReportFormat) -> str:
    headers = ["policy_id", *[str(lv) for lv in table.levels], "avg"]
    if fmt is ReportFormat.CSV:
        lines = [",".join(headers)]
        for row in table.rows:
            cells = [row.policy_id]
            cells.extend(format_rate(r) for r in row.rates)
            cells.append(format_rate(row.avg))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    widths = [len(h) for h in headers]
    body = []
    for row in table.rows:
        cells = [row.policy_id]
        cells.extend(format_rate(r, empty="-") for r in row.rates)
        cells.append(format_rate(row.avg))
        body.append(cells)
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
    def fmt_row(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [fmt_row(headers)]
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    lines.extend(fmt_row(cells) for cells in body)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrendViolation:
    policy_id: str
    level_a: object
    level_b: object
    rate_a: float
    rate_b: float


def trend_check(
    table: ReportTable, slack: float = DEFAULT_TREND_SLACK
) -> tuple[TrendViolation, ...]:
    """Every rise of more than ``slack`` points from one level to the next;
    a pair with a missing rate is skipped. The check passes when there is
    none."""
    if table.group_by is not Factor.OBJECT_COUNT:
        raise UsageError(
            f"trend check requires an ordered factor, got {table.group_by.value}"
        )
    if not 0.0 <= slack < math.inf:  # NaN fails every comparison
        raise UsageError(f"slack must be finite and non-negative, got {slack}")
    violations = []
    for row in table.rows:
        for i in range(len(table.levels) - 1):
            a, b = row.rates[i], row.rates[i + 1]
            if a is not None and b is not None and a < b - slack:
                violations.append(
                    TrendViolation(
                        policy_id=row.policy_id,
                        level_a=table.levels[i],
                        level_b=table.levels[i + 1],
                        rate_a=a,
                        rate_b=b,
                    )
                )
    return tuple(violations)

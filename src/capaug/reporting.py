"""Comparison-report rendering for aggregate metric rows, and the metric triple
they hold."""

from __future__ import annotations

import io
from dataclasses import dataclass

FORMAT_MARKDOWN = "markdown"
FORMAT_CSV = "csv"


@dataclass(frozen=True)
class MetricsTriple:
    sdr_db: float
    sdri_db: float
    si_sdr_db: float

    def clamped(self, clamp_db: float) -> "MetricsTriple":
        return MetricsTriple(
            sdr_db=_clamp(self.sdr_db, clamp_db),
            sdri_db=_clamp(self.sdri_db, clamp_db),
            si_sdr_db=_clamp(self.si_sdr_db, clamp_db),
        )


def _clamp(value: float, clamp_db: float) -> float:
    return min(max(value, -clamp_db), clamp_db)


@dataclass(frozen=True)
class ReportRow:
    model: str
    training_dataset: str
    caption_augmentation: str
    metrics: MetricsTriple

    @classmethod
    def from_values(cls, model: str, training_dataset: str,
                    caption_augmentation: str, sdr_db: float, sdri_db: float,
                    si_sdr_db: float) -> "ReportRow":
        return cls(model, training_dataset, caption_augmentation,
                   MetricsTriple(sdr_db, sdri_db, si_sdr_db))


def _fmt(triple: MetricsTriple) -> str:
    return f"{triple.sdr_db:.3f} {triple.sdri_db:.3f} {triple.si_sdr_db:.3f}"


def render_report(rows: list[ReportRow], fmt: str = FORMAT_MARKDOWN,
                  config_hash: str | None = None) -> str:
    """Render aggregate rows as a Markdown table or CSV, 3-decimal fixed point.

    Row order is preserved as given. The metric columns form a single
    space-separated SDR/SDRi/SI-SDR field in Markdown; CSV keeps them apart.
    """
    if not rows:
        raise ValueError("report needs at least one row")
    if fmt == FORMAT_MARKDOWN:
        return _render_markdown(rows, config_hash)
    if fmt == FORMAT_CSV:
        return _render_csv(rows, config_hash)
    raise ValueError(f"unknown report format {fmt!r}")


def _render_markdown(rows: list[ReportRow], config_hash: str | None) -> str:
    out = io.StringIO()
    out.write("| Model | Training dataset | Caption Augmentation | SDR SDRi SI-SDR |\n")
    out.write("| --- | --- | --- | --- |\n")
    for row in rows:
        out.write(f"| {row.model} | {row.training_dataset} "
                  f"| {row.caption_augmentation} | {_fmt(row.metrics)} |\n")
    if config_hash:
        out.write(f"\nconfig sha256: {config_hash}\n")
    return out.getvalue()


def _render_csv(rows: list[ReportRow], config_hash: str | None) -> str:
    out = io.StringIO()
    if config_hash:
        out.write(f"# config sha256: {config_hash}\n")
    out.write("model,training_dataset,caption_augmentation,sdr,sdri,si_sdr\n")
    for row in rows:
        t = row.metrics
        out.write(f"{row.model},{row.training_dataset},{row.caption_augmentation},"
                  f"{t.sdr_db:.3f},{t.sdri_db:.3f},{t.si_sdr_db:.3f}\n")
    return out.getvalue()

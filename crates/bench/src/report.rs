//! Machine-readable run reports (`repro --json`).
//!
//! Hand-rolled JSON, same approach as `ioat-telemetry`'s Chrome-trace
//! exporter: the offline build has no registry serde, so the writer walks
//! [`FigureResult`]s directly. The document is stable enough to commit
//! (`BENCH_pr5.json`) and diff across PRs: figures appear in request
//! order, rows in input order, and every number comes from a deterministic
//! simulation — only the `*_wall_ms` fields vary between hosts.
//!
//! Schema `ioat-bench/2` adds per-figure `status` ("ok"/"failed") and
//! `error` (the supervisor's classified failure reason, or null): a
//! partial-failure run still produces a complete, parseable report with
//! every surviving figure's rows intact.
//!
//! Schema `ioat-bench/3` adds per-figure simulator-scale metrics for the
//! fabric family: `sim_events` (deterministic; 0 when a figure does not
//! report them), `events_per_sec` (derived from `sim_events` and
//! `wall_ms`, null when either is unavailable), and `peak_rss_bytes`
//! (process `VmHWM`, null off-Linux). Like `*_wall_ms`, the last two
//! vary between hosts and must be stripped before determinism diffs.
//!
//! Schema `ioat-bench/4` adds the parallel-in-simulation fields:
//! `sim_threads` in the header (the `--sim-threads` worker count the run
//! was *requested* with — host policy, like `jobs`) and a per-figure
//! `parsim` array (one entry per partitioned simulation: partition
//! count, rounds, mean achieved window in nanoseconds, and per-partition
//! event counts). The `parsim` payload is deliberately thread-count
//! invariant — it is part of the determinism contract and must be
//! byte-identical at any `--sim-threads` value.

use crate::{FigureResult, FigureRows};
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An `f64` as a JSON number. JSON has no NaN/Infinity; those become
/// `null` rather than corrupting the document.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Header metadata recorded at the top of the document.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Whether `--quick` windows were used.
    pub quick: bool,
    /// Worker count the sweep executor ran with.
    pub jobs: usize,
    /// Partitioned-engine worker count the run was requested with
    /// (`--sim-threads`). Header-only: per-figure payloads stay
    /// thread-count invariant.
    pub sim_threads: usize,
    /// Wall-clock for the whole run in milliseconds (all figures,
    /// including render time).
    pub total_wall_ms: f64,
}

/// Renders the full report document for a run's figures.
pub fn render_json(meta: &RunMeta, figures: &[FigureResult]) -> String {
    let mut out = String::with_capacity(figures.len() * 2048 + 256);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"ioat-bench/4\",");
    let _ = writeln!(out, "  \"quick\": {},", meta.quick);
    let _ = writeln!(out, "  \"jobs\": {},", meta.jobs);
    let _ = writeln!(out, "  \"sim_threads\": {},", meta.sim_threads);
    let _ = writeln!(out, "  \"total_wall_ms\": {},", num(meta.total_wall_ms));
    out.push_str("  \"figures\": [");
    for (i, fig) in figures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&figure_json(fig, "    "));
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn figure_json(fig: &FigureResult, indent: &str) -> String {
    // Schema 2: `status` is "ok"/"failed" and `error` carries the
    // supervisor's classified reason (or null). The fields sit between
    // the identity header and `wall_ms` so partial-failure runs diff
    // cleanly against a clean baseline (only the failed figure changes).
    let error = match &fig.error {
        Some(reason) => format!("\"{}\"", esc(reason)),
        None => "null".to_string(),
    };
    // Schema 3: events/sec only when both inputs are meaningful — a
    // figure that doesn't count events (sim_events 0) or a zeroed-out
    // wall clock (determinism fixtures) yields null, not 0 or Infinity.
    let events_per_sec = if fig.sim_events > 0 && fig.wall_ms.is_finite() && fig.wall_ms > 0.0 {
        num(fig.sim_events as f64 / (fig.wall_ms / 1e3))
    } else {
        "null".to_string()
    };
    let peak_rss = match fig.peak_rss_bytes {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{indent}{{\"name\": \"{}\", \"title\": \"{}\", \"unit\": \"{}\", \
         \"status\": \"{}\", \"error\": {error}, \
         \"wall_ms\": {}, \"sim_events\": {}, \"events_per_sec\": {events_per_sec}, \
         \"peak_rss_bytes\": {peak_rss}, \"kind\": \"{}\",\n{indent} \"rows\": [",
        esc(&fig.name),
        esc(&fig.title),
        esc(&fig.unit),
        if fig.failed() { "failed" } else { "ok" },
        num(fig.wall_ms),
        fig.sim_events,
        kind_name(&fig.rows),
    );
    let rows: Vec<String> = match &fig.rows {
        FigureRows::Compare(rows) => rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"label\": \"{}\", \"non_ioat\": {}, \"ioat\": {}, \
                     \"non_cpu\": {}, \"ioat_cpu\": {}}}",
                    esc(&r.label),
                    num(r.non_ioat),
                    num(r.ioat),
                    num(r.non_cpu),
                    num(r.ioat_cpu)
                )
            })
            .collect(),
        FigureRows::Copy(rows) => rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"size\": {}, \"copy_cache_us\": {}, \"copy_nocache_us\": {}, \
                     \"dma_copy_us\": {}, \"dma_overhead_us\": {}, \"overlap\": {}}}",
                    r.size,
                    num(r.copy_cache_us),
                    num(r.copy_nocache_us),
                    num(r.dma_copy_us),
                    num(r.dma_overhead_us),
                    num(r.overlap)
                )
            })
            .collect(),
        FigureRows::Splitup(rows) => rows
            .iter()
            .map(|r| {
                let cfgs = [
                    ("non_ioat", &r.non_ioat),
                    ("ioat_dma", &r.ioat_dma),
                    ("ioat_split", &r.ioat_split),
                ];
                let mut obj = format!("{{\"msg_size\": {}", r.msg_size);
                for (key, t) in cfgs {
                    let _ = write!(
                        obj,
                        ", \"{key}\": {{\"mbps\": {}, \"rx_cpu\": {}, \"tx_cpu\": {}}}",
                        num(t.mbps),
                        num(t.rx_cpu),
                        num(t.tx_cpu)
                    );
                }
                obj.push('}');
                obj
            })
            .collect(),
        FigureRows::Pinning(rows) => rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"size\": {}, \"pin_us\": [{}, {}, {}]}}",
                    r.size,
                    num(r.pin_us[0]),
                    num(r.pin_us[1]),
                    num(r.pin_us[2])
                )
            })
            .collect(),
    };
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{indent}  {row}");
    }
    let _ = write!(out, "\n{indent} ],\n{indent} \"notes\": [");
    for (i, note) in fig.notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", esc(note));
    }
    // Schema 4: one entry per partitioned simulation the figure built
    // (empty for figures that don't run on the parallel engine). All
    // values are thread-count invariant.
    let _ = write!(out, "],\n{indent} \"parsim\": [");
    for (i, p) in fig.parsim.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let events: Vec<String> = p.events.iter().map(|e| e.to_string()).collect();
        let _ = write!(
            out,
            "\n{indent}  {{\"label\": \"{}\", \"partitions\": {}, \"rounds\": {}, \
             \"mean_window_ns\": {}, \"events\": [{}]}}",
            esc(&p.label),
            p.partitions,
            p.rounds,
            num(p.mean_window_ns),
            events.join(", ")
        );
    }
    if !fig.parsim.is_empty() {
        let _ = write!(out, "\n{indent} ");
    }
    out.push_str("]}");
    out
}

fn kind_name(rows: &FigureRows) -> &'static str {
    match rows {
        FigureRows::Compare(_) => "compare",
        FigureRows::Copy(_) => "copy",
        FigureRows::Splitup(_) => "splitup",
        FigureRows::Pinning(_) => "pinning",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParsimStats, PinningRow, Row};

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// strings, no unterminated strings, no bare NaN/Infinity tokens.
    fn assert_well_formed(s: &str) {
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced structure");
        }
        assert_eq!(depth, 0, "balanced document");
        assert!(!in_str, "no unterminated string");
        assert!(
            !s.contains("NaN") && !s.contains("inf"),
            "no non-JSON numbers"
        );
    }

    fn sample_figures() -> Vec<FigureResult> {
        vec![
            FigureResult {
                name: "fig3a".into(),
                title: "Fig \"3a\"".into(),
                unit: "Mbps".into(),
                rows: FigureRows::Compare(vec![Row {
                    label: "1 port".into(),
                    non_ioat: 920.0,
                    ioat: 940.5,
                    non_cpu: 0.35,
                    ioat_cpu: f64::NAN,
                }]),
                notes: vec!["a \"note\"".into()],
                wall_ms: 12.5,
                sim_events: 25_000,
                peak_rss_bytes: Some(64 << 20),
                error: None,
                parsim: vec![ParsimStats {
                    label: "k=4 o=1 0K non".into(),
                    partitions: 3,
                    rounds: 40,
                    mean_window_ns: 125000.5,
                    events: vec![100, 2000, 3000],
                }],
            },
            FigureResult {
                name: "abl-copy".into(),
                title: "Pinning".into(),
                unit: "us".into(),
                rows: FigureRows::Pinning(vec![PinningRow {
                    size: 4096,
                    pin_us: [1.0, 2.0, 3.0],
                }]),
                notes: Vec::new(),
                wall_ms: 0.1,
                sim_events: 0,
                peak_rss_bytes: None,
                error: None,
                parsim: Vec::new(),
            },
        ]
    }

    #[test]
    fn report_is_well_formed_and_complete() {
        let meta = RunMeta {
            quick: true,
            jobs: 8,
            sim_threads: 2,
            total_wall_ms: 99.0,
        };
        let doc = render_json(&meta, &sample_figures());
        assert_well_formed(&doc);
        assert!(doc.contains("\"schema\": \"ioat-bench/4\""));
        assert!(doc.contains("\"jobs\": 8"));
        assert!(doc.contains("\"sim_threads\": 2"));
        assert!(doc.contains("\"name\": \"fig3a\""));
        assert!(doc.contains("\"kind\": \"compare\""));
        assert!(doc.contains("\"kind\": \"pinning\""));
        // Schema 3: 25 000 events over 12.5 ms is exactly 2e6 events/sec;
        // the pinning figure reports neither events nor RSS.
        assert!(doc.contains("\"sim_events\": 25000"));
        assert!(doc.contains("\"events_per_sec\": 2000000"));
        assert!(doc.contains("\"peak_rss_bytes\": 67108864"));
        assert!(doc.contains("\"sim_events\": 0"));
        assert!(doc.contains("\"events_per_sec\": null"));
        assert!(doc.contains("\"peak_rss_bytes\": null"));
        assert!(doc.contains("\"status\": \"ok\""));
        assert!(doc.contains("\"error\": null"));
        assert!(!doc.contains("\"status\": \"failed\""));
        assert!(doc.contains("\"ioat_cpu\": null"), "NaN becomes null");
        assert!(doc.contains("\"pin_us\": [1, 2, 3]"));
        assert!(doc.contains("a \\\"note\\\""), "notes are escaped");
        // Schema 4: the partitioned figure carries its parsim telemetry;
        // the non-partitioned one renders an empty array.
        assert!(doc.contains("\"parsim\": ["));
        assert!(doc.contains("\"parsim\": []"));
        assert!(doc.contains("\"label\": \"k=4 o=1 0K non\""));
        assert!(doc.contains("\"partitions\": 3"));
        assert!(doc.contains("\"rounds\": 40"));
        assert!(doc.contains("\"mean_window_ns\": 125000.5"));
        assert!(doc.contains("\"events\": [100, 2000, 3000]"));
    }

    /// Inverse of [`esc`], for round-trip testing only: decodes the
    /// escape sequences the writer can emit.
    fn unescape(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (&mut chars).take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("4 hex digits");
                    out.push(char::from_u32(code).expect("BMP scalar"));
                }
                other => panic!("unknown escape \\{other:?}"),
            }
        }
        out
    }

    #[test]
    fn hostile_strings_round_trip_and_keep_the_document_well_formed() {
        // Every class of character that could break a JSON string:
        // quotes, backslashes, the named control escapes, raw C0 controls
        // (NUL, BEL, ESC), DEL-adjacent text, and non-ASCII.
        let hostile = "q=\" bs=\\ nl=\n cr=\r tab=\t nul=\0 bel=\x07 esc=\x1b \
                       u=✓ crab=🦀 end";
        assert_eq!(unescape(&esc(hostile)), hostile, "escaper is lossless");
        assert!(!esc(hostile).contains('\n'), "no raw control chars leak");
        assert!(esc(hostile).contains("\\u0000"), "NUL uses \\u form");

        // The same strings flowing through every user-controlled field of
        // a failed figure must still yield a structurally valid document.
        let fig = FigureResult {
            name: hostile.into(),
            title: hostile.into(),
            unit: "\"".into(),
            rows: FigureRows::Compare(vec![Row {
                label: hostile.into(),
                non_ioat: 1.0,
                ioat: 2.0,
                non_cpu: 0.1,
                ioat_cpu: 0.2,
            }]),
            notes: vec![hostile.into()],
            wall_ms: 1.0,
            sim_events: 0,
            peak_rss_bytes: None,
            error: Some(format!("panicked: {hostile}")),
            parsim: vec![crate::ParsimStats {
                label: hostile.into(),
                partitions: 1,
                rounds: 1,
                mean_window_ns: f64::NAN,
                events: vec![7],
            }],
        };
        let meta = RunMeta {
            quick: false,
            jobs: 1,
            sim_threads: 1,
            total_wall_ms: 1.0,
        };
        let doc = render_json(&meta, &[fig]);
        assert_well_formed(&doc);
        assert!(doc.contains("\"status\": \"failed\""));
        assert!(doc.contains("\"error\": \"panicked: "));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        // JSON has no NaN/Infinity tokens; every non-finite value must
        // degrade to `null` so downstream parsers never choke on a report
        // from a pathological run.
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(0.0), "0");

        let meta = RunMeta {
            quick: true,
            jobs: 1,
            sim_threads: 1,
            total_wall_ms: f64::INFINITY,
        };
        let mut figs = sample_figures();
        if let FigureRows::Compare(rows) = &mut figs[0].rows {
            rows[0].non_ioat = f64::NEG_INFINITY;
            rows[0].ioat = f64::INFINITY;
        }
        figs[0].wall_ms = f64::NAN;
        let doc = render_json(&meta, &figs);
        assert_well_formed(&doc);
        assert!(doc.contains("\"total_wall_ms\": null"));
        assert!(doc.contains("\"non_ioat\": null"));
        assert!(doc.contains("\"ioat\": null"));
        assert!(doc.contains("\"wall_ms\": null"));
    }

    #[test]
    fn empty_run_is_well_formed() {
        let meta = RunMeta {
            quick: false,
            jobs: 1,
            sim_threads: 1,
            total_wall_ms: 0.0,
        };
        assert_well_formed(&render_json(&meta, &[]));
    }
}

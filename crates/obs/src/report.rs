//! The immutable metrics snapshot and its hand-rolled JSON rendering
//! (same no-serde discipline as the lint report).

use crate::names;

/// Aggregated wall-clock stats for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// The dotted span name.
    pub name: String,
    /// Completed spans under this name (deterministic across threads).
    pub count: u64,
    /// Total wall time in nanoseconds (not deterministic).
    pub total_nanos: u64,
    /// Shortest single span in nanoseconds.
    pub min_nanos: u64,
    /// Longest single span in nanoseconds.
    pub max_nanos: u64,
}

impl SpanStat {
    /// Total wall time in milliseconds.
    #[must_use]
    pub fn wall_ms(&self) -> f64 {
        self.total_nanos as f64 / 1e6
    }
}

/// A point-in-time snapshot of a [`MetricsRegistry`](crate::MetricsRegistry):
/// the full counter catalog plus every span name that completed at least
/// once, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    pub(crate) counters: Vec<(&'static str, u64)>,
    pub(crate) spans: Vec<SpanStat>,
}

impl MetricsReport {
    /// All counters in catalog order (the full catalog, zeros included).
    #[must_use]
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All spans, sorted by name.
    #[must_use]
    pub fn spans(&self) -> &[SpanStat] {
        &self.spans
    }

    /// The value of one counter (0 for names outside the catalog).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The stats for one span name, if it completed at least once.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Renders the report as JSON with a fixed key order: the complete
    /// counter catalog (catalog order), then spans (name order) with
    /// `count` and `wall_ms`, then derived throughput figures when an
    /// `exec.region` span exists. All numeric noise lives in `wall_ms`,
    /// `tasks_per_sec`, and `busy_workers` — [`normalize_timings`] masks
    /// exactly those, making the rest byte-comparable across runs and
    /// thread counts.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_str(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_json_str(&mut out, &s.name);
            out.push_str(&format!(
                ", \"count\": {}, \"wall_ms\": {:.3}}}",
                s.count,
                s.wall_ms()
            ));
        }
        if self.spans.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        if let Some(region) = self.span(names::SPAN_EXEC_REGION) {
            let secs = region.total_nanos as f64 / 1e9;
            let tasks_per_sec = if secs > 0.0 {
                self.counter(names::EXEC_ITEMS) as f64 / secs
            } else {
                0.0
            };
            let busy_workers = if region.total_nanos > 0 {
                self.span(names::SPAN_EXEC_WORKER)
                    .map_or(0.0, |w| w.total_nanos as f64 / region.total_nanos as f64)
            } else {
                0.0
            };
            out.push_str(&format!(
                ",\n  \"derived\": {{\"tasks_per_sec\": {tasks_per_sec:.3}, \"busy_workers\": {busy_workers:.3}}}"
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

/// Appends `s` to `out` as a quoted JSON string literal: `"` and `\\`
/// are backslash-escaped, `\n`, `\r` and `\t` take their short forms,
/// and every other character below U+0020 becomes `\u00XX`. Every
/// hand-rolled JSON writer in the workspace escapes through this one
/// function.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Masks every wall-clock-dependent number in a metrics JSON report
/// (`wall_ms`, `tasks_per_sec`, `busy_workers` values become `0`),
/// leaving counters and span counts untouched. Two reports from the
/// same deterministic workload are byte-identical after normalization,
/// whatever the thread count — this is the comparison the CI
/// metrics-gate and the CLI tests perform.
#[must_use]
pub fn normalize_timings(json: &str) -> String {
    let mut out = json.to_string();
    for key in ["\"wall_ms\": ", "\"tasks_per_sec\": ", "\"busy_workers\": "] {
        let mut result = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(key) {
            let after = pos + key.len();
            result.push_str(&rest[..after]);
            result.push('0');
            let tail = &rest[after..];
            let end = tail
                .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
                .unwrap_or(tail.len());
            rest = &tail[end..];
        }
        result.push_str(rest);
        out = result;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, MetricsRegistry, Recorder};

    #[test]
    fn json_contains_full_catalog_and_parses_shape() {
        let reg = MetricsRegistry::new();
        reg.add(names::SIM_EVENTS_PROCESSED, 11);
        let json = reg.snapshot().to_json();
        for name in names::COUNTERS {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
        assert!(json.contains("\"sim.events.processed\": 11"));
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn spans_render_count_and_wall_ms() {
        let reg = MetricsRegistry::new();
        reg.record_nanos("cli.sim", 2_500_000);
        let json = reg.snapshot().to_json();
        assert!(json.contains("{\"name\": \"cli.sim\", \"count\": 1, \"wall_ms\": 2.500}"));
    }

    #[test]
    fn empty_report_has_empty_span_list_and_no_derived_block() {
        let json = MetricsRegistry::new().snapshot().to_json();
        assert!(json.contains("\"spans\": []"));
        assert!(!json.contains("\"derived\""));
    }

    #[test]
    fn derived_block_appears_with_exec_region() {
        let reg = MetricsRegistry::new();
        reg.add(names::EXEC_ITEMS, 500);
        reg.record_nanos(names::SPAN_EXEC_REGION, 1_000_000_000);
        reg.record_nanos(names::SPAN_EXEC_WORKER, 3_000_000_000);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"tasks_per_sec\": 500.000"));
        assert!(json.contains("\"busy_workers\": 3.000"));
    }

    #[test]
    fn normalize_timings_masks_only_wall_clock_fields() {
        let reg = MetricsRegistry::new();
        reg.add(names::SIM_HEAP_PUSHES, 42);
        reg.add(names::EXEC_ITEMS, 10);
        reg.record_nanos("sim.settle", 123_456_789);
        reg.record_nanos(names::SPAN_EXEC_REGION, 55_000);
        reg.record_nanos(names::SPAN_EXEC_WORKER, 44_000);
        let json = reg.snapshot().to_json();
        let masked = normalize_timings(&json);
        assert!(masked.contains("\"wall_ms\": 0}"));
        assert!(masked.contains("\"tasks_per_sec\": 0,"));
        assert!(masked.contains("\"busy_workers\": 0}"));
        assert!(masked.contains("\"sim.heap.pushes\": 42"), "counters kept");
        assert!(masked.contains("\"count\": 1"), "span counts kept");
        assert!(!masked.contains("123"), "raw duration gone");
    }

    #[test]
    fn normalized_reports_are_byte_identical_across_runs() {
        let run = || {
            let reg = MetricsRegistry::new();
            reg.add(names::SIM_EVENTS_PROCESSED, 1000);
            let _s = span(&reg, "sim.settle");
            drop(_s);
            normalize_timings(&reg.snapshot().to_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn wall_ms_converts_nanos() {
        let s = SpanStat {
            name: "x".into(),
            count: 1,
            total_nanos: 1_500_000,
            min_nanos: 1_500_000,
            max_nanos: 1_500_000,
        };
        assert!((s.wall_ms() - 1.5).abs() < 1e-12);
    }
}

//! Exporters: Prometheus text exposition for the metrics registry and a
//! `chrome://tracing`-compatible trace_event JSON for recorded events.
//!
//! Both are pull-style snapshots — nothing here runs on the hot path.
//! [`prometheus_text`] walks the live registry (including the log-bucket
//! latency histograms, exposed with cumulative `le` bounds at occupied
//! bucket boundaries, which Prometheus permits). [`chrome_trace`] turns
//! a slice of events — e.g. a [`crate::FlightRecorder`] snapshot — into
//! a JSON document that `chrome://tracing` / Perfetto renders as a span
//! tree: one row per trace, spans positioned by their start offset from
//! the process trace epoch, with span/parent ids in `args` so retry
//! chains reconstruct exactly.

use std::fmt::Write as _;

use crate::event::{Event, OpKind, Role};
use crate::json::escape_into;
use crate::metrics::Metrics;

/// Sanitizes a dotted series name into a Prometheus metric-name suffix.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

/// Renders the registry in Prometheus text exposition format.
pub fn prometheus_text(metrics: &Metrics) -> String {
    let mut out = String::new();
    out.push_str("# TYPE whopay_ops_total counter\n");
    out.push_str("# TYPE whopay_op_errors_total counter\n");
    out.push_str("# TYPE whopay_op_messages_total counter\n");
    out.push_str("# TYPE whopay_op_bytes_total counter\n");
    out.push_str("# TYPE whopay_op_latency_ns histogram\n");
    for role in Role::ALL {
        for op in OpKind::ALL {
            let cell = metrics.op(role, op);
            let count = cell.count.get();
            if count == 0 && cell.messages.get() == 0 {
                continue;
            }
            let labels = format!("role=\"{}\",op=\"{}\"", role.label(), op.label());
            writeln!(out, "whopay_ops_total{{{labels}}} {count}").expect("string write");
            writeln!(out, "whopay_op_errors_total{{{labels}}} {}", cell.errors.get())
                .expect("string write");
            writeln!(out, "whopay_op_messages_total{{{labels}}} {}", cell.messages.get())
                .expect("string write");
            writeln!(out, "whopay_op_bytes_total{{{labels}}} {}", cell.bytes.get())
                .expect("string write");
            let timed = cell.latency.count();
            if timed > 0 {
                for (le, cumulative) in cell.latency.cumulative_buckets() {
                    writeln!(out, "whopay_op_latency_ns_bucket{{{labels},le=\"{le}\"}} {cumulative}")
                        .expect("string write");
                }
                writeln!(out, "whopay_op_latency_ns_bucket{{{labels},le=\"+Inf\"}} {timed}")
                    .expect("string write");
                writeln!(out, "whopay_op_latency_ns_sum{{{labels}}} {}", cell.latency.sum_nanos())
                    .expect("string write");
                writeln!(out, "whopay_op_latency_ns_count{{{labels}}} {timed}").expect("string write");
            }
        }
    }
    let report = metrics.report();
    for (name, value) in &report.counters {
        let metric = format!("whopay_{}", sanitize(name));
        writeln!(out, "# TYPE {metric} counter").expect("string write");
        writeln!(out, "{metric} {value}").expect("string write");
    }
    for (name, value) in &report.gauges {
        let metric = format!("whopay_{}", sanitize(name));
        writeln!(out, "# TYPE {metric} gauge").expect("string write");
        writeln!(out, "{metric} {value}").expect("string write");
    }
    for (name, histogram) in metrics.named_histograms() {
        let metric = format!("whopay_{}_ns", sanitize(&name));
        writeln!(out, "# TYPE {metric} histogram").expect("string write");
        for (le, cumulative) in histogram.cumulative_buckets() {
            writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cumulative}").expect("string write");
        }
        writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", histogram.count()).expect("string write");
        writeln!(out, "{metric}_sum {}", histogram.sum_nanos()).expect("string write");
        writeln!(out, "{metric}_count {}", histogram.count()).expect("string write");
    }
    out
}

/// Renders events as a `chrome://tracing` trace_event JSON document.
///
/// Every event becomes a complete ("ph":"X") slice. Traced events share
/// a `tid` derived from their `trace_id`, so each logical operation —
/// and every retry attempt inside it — renders on its own row; untraced
/// events fall back to a per-role row. Timestamps are microseconds from
/// the process trace epoch (events without one are laid out by arrival
/// order).
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = event.start_us.unwrap_or(i as u64);
        let dur = event
            .duration
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(1);
        let tid = match event.trace {
            Some(t) => 10 + t.trace_id % 100_000,
            None => event.role.index() as u64,
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"args\":{{",
            event.op.label(),
            event.role.label(),
        )
        .expect("string write");
        write!(out, "\"outcome\":\"{}\"", event.outcome.label()).expect("string write");
        if let Some(t) = event.trace {
            write!(
                out,
                ",\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\"",
                t.trace_id, t.span_id, t.parent_span_id
            )
            .expect("string write");
        }
        if let Some(r) = event.retry {
            write!(out, ",\"retry\":{},\"after\":\"{}\"", r.attempt, r.after).expect("string write");
        }
        if event.messages != 0 || event.bytes != 0 {
            write!(out, ",\"messages\":{},\"bytes\":{}", event.messages, event.bytes)
                .expect("string write");
        }
        if let Some(detail) = &event.detail {
            out.push_str(",\"detail\":\"");
            escape_into(detail, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::TraceContext;
    use std::time::Duration;

    #[test]
    fn prometheus_renders_rows_counters_and_histograms() {
        let m = Metrics::new();
        m.observe(
            &Event::new(Role::Broker, OpKind::Purchase)
                .with_traffic(2, 311)
                .with_duration(Duration::from_nanos(100)),
        );
        m.observe(&Event::new(Role::Broker, OpKind::Purchase).failed());
        m.counter("retry.attempts").add(4);
        m.gauge("pool.depth").set(-1);
        m.histogram("crypto.dsa.verify").record(Duration::from_micros(50));

        let text = prometheus_text(&m);
        assert!(text.contains("whopay_ops_total{role=\"broker\",op=\"purchase\"} 2"), "{text}");
        assert!(text.contains("whopay_op_errors_total{role=\"broker\",op=\"purchase\"} 1"));
        assert!(text.contains("whopay_op_bytes_total{role=\"broker\",op=\"purchase\"} 311"));
        assert!(
            text.contains("whopay_op_latency_ns_bucket{role=\"broker\",op=\"purchase\",le=\"127\"} 1")
        );
        assert!(
            text.contains("whopay_op_latency_ns_bucket{role=\"broker\",op=\"purchase\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("whopay_retry_attempts 4"));
        assert!(text.contains("whopay_pool_depth -1"));
        assert!(text.contains("whopay_crypto_dsa_verify_ns_count 1"));
        // Every non-comment line is "name{labels} value" or "name value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.rsplit_once(' ').is_some(), "malformed line: {line}");
        }
    }

    #[test]
    fn chrome_trace_positions_spans_by_trace() {
        let root = TraceContext::root();
        let child = root.child();
        let events = vec![
            Event::new(Role::Client, OpKind::Purchase)
                .with_trace(root)
                .with_duration(Duration::from_micros(10)),
            Event::new(Role::Broker, OpKind::Purchase)
                .with_trace(child)
                .with_retry(1, "timed_out")
                .with_detail("q \"x\""),
            Event::new(Role::Sim, OpKind::Other),
        ];
        let json = chrome_trace(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"dur\":10"));
        assert!(json.contains(&format!("\"parent\":\"{:016x}\",\"retry\":1", root.span_id)));
        assert!(json.contains("\"retry\":1,\"after\":\"timed_out\""));
        assert!(json.contains("\"detail\":\"q \\\"x\\\"\""), "{json}");
        // Both halves of the trace share one tid row.
        let tid = format!("\"tid\":{}", 10 + root.trace_id % 100_000);
        assert_eq!(json.matches(&tid).count(), 2, "{json}");
    }
}

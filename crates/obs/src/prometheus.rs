//! Prometheus text exposition (version 0.0.4) of a [`MetricsRegistry`].
//!
//! The output is what a `/metrics` endpoint would serve; here it is
//! written to a file so experiment runs leave a scrapeable artifact next
//! to their tables. Counters end in `_total` by convention, histograms
//! expand to `_bucket{le=...}` / `_sum` / `_count` series.

use std::fmt::Write;

use crate::registry::MetricsRegistry;

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline are escaped.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a label set (possibly with an extra `le` pair) as `{k="v",...}`
/// or the empty string.
fn labels_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Formats a float the way Prometheus expects (`+Inf`, integers without
/// exponent noise).
fn fmt_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the whole registry. One `# TYPE` header per metric name, series
/// in deterministic (BTreeMap) order. A disabled registry renders empty.
pub(crate) fn render(reg: &MetricsRegistry) -> String {
    let Some(inner) = &reg.inner else {
        return String::new();
    };
    let inner = inner.borrow();
    let mut out = String::new();

    let mut last_name = "";
    for ((name, labels), value) in inner.counters.iter() {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name} counter");
            last_name = name;
        }
        let _ = writeln!(out, "{name}{} {value}", labels_block(labels, None));
    }

    last_name = "";
    for ((name, labels), value) in &inner.gauges {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name} gauge");
            last_name = name;
        }
        let _ = writeln!(
            out,
            "{name}{} {}",
            labels_block(labels, None),
            fmt_value(*value)
        );
    }

    last_name = "";
    for ((name, labels), h) in inner.histograms.iter() {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name} histogram");
            last_name = name;
        }
        let mut cumulative = 0u64;
        for (i, bound) in h.bounds.iter().enumerate() {
            cumulative += h.counts[i];
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                labels_block(labels, Some(("le", &fmt_value(*bound))))
            );
        }
        cumulative += h.counts[h.bounds.len()];
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            labels_block(labels, Some(("le", "+Inf")))
        );
        let _ = writeln!(
            out,
            "{name}_sum{} {}",
            labels_block(labels, None),
            fmt_value(h.sum)
        );
        let _ = writeln!(out, "{name}_count{} {cumulative}", labels_block(labels, None));
    }

    // Streaming-digest quantiles, rendered as gauges (`<name>_quantile`
    // with a `quantile` label) so they cannot collide with a histogram of
    // the same base name. Values are within the digest's relative-error
    // bound (see the `digest` module).
    last_name = "";
    for ((name, labels), d) in inner.digests.iter() {
        if name != last_name {
            let _ = writeln!(out, "# TYPE {name}_quantile gauge");
            last_name = name;
        }
        for q in [0.5, 0.9, 0.95, 0.99] {
            let Some(v) = d.quantile(q) else { continue };
            let _ = writeln!(
                out,
                "{name}_quantile{} {}",
                labels_block(labels, Some(("quantile", &fmt_value(q)))),
                fmt_value(v)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    #[test]
    fn counters_and_gauges_render() {
        let r = MetricsRegistry::enabled();
        r.counter_handle("tasks_completed_total", &[("kind", "vm")]).add(3);
        r.counter_handle("tasks_completed_total", &[("kind", "lambda")]).add(5);
        r.gauge_set("pending_tasks", &[], 7.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE tasks_completed_total counter"));
        assert!(text.contains("tasks_completed_total{kind=\"vm\"} 3"));
        assert!(text.contains("tasks_completed_total{kind=\"lambda\"} 5"));
        assert!(text.contains("# TYPE pending_tasks gauge"));
        assert!(text.contains("pending_tasks 7"));
        // One TYPE header even with two series of the same name.
        assert_eq!(text.matches("# TYPE tasks_completed_total").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let r = MetricsRegistry::enabled();
        let h = r.histogram_handle_with("op_latency_seconds", &[("store", "hdfs")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(9.0);
        let text = r.render_prometheus();
        assert!(text.contains("op_latency_seconds_bucket{store=\"hdfs\",le=\"0.1\"} 1"));
        assert!(text.contains("op_latency_seconds_bucket{store=\"hdfs\",le=\"1\"} 2"));
        assert!(text.contains("op_latency_seconds_bucket{store=\"hdfs\",le=\"+Inf\"} 3"));
        assert!(text.contains("op_latency_seconds_count{store=\"hdfs\"} 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::enabled();
        r.counter_handle("weird_total", &[("p", "a\"b\\c")]).inc();
        assert!(r.render_prometheus().contains("p=\"a\\\"b\\\\c\""));
    }

    #[test]
    fn hostile_label_values_cannot_break_the_exposition() {
        // The full hostile triple of the text-format spec: backslash,
        // double quote and a raw newline, in one label value, across all
        // metric families. None may survive unescaped — a raw newline
        // would split the sample line and corrupt the whole scrape.
        let hostile = "a\\b\"c\nd";
        let r = MetricsRegistry::enabled();
        r.counter_handle("h_total", &[("p", hostile)]).inc();
        r.gauge_set("h_gauge", &[("p", hostile)], 2.0);
        r.histogram_handle_with("h_seconds", &[("p", hostile)], &[1.0]).observe(0.5);
        r.quantile_handle("h_digest_seconds", &[("p", hostile)]).record(0.5);
        let text = r.render_prometheus();
        let escaped = "p=\"a\\\\b\\\"c\\nd\"";
        assert!(text.contains(&format!("h_total{{{escaped}}} 1")));
        assert!(text.contains(&format!("h_gauge{{{escaped}}} 2")));
        assert!(text.contains(&format!("h_seconds_count{{{escaped}}} 1")));
        assert!(text.contains("h_digest_seconds_quantile{"));
        for line in text.lines() {
            assert!(
                !line.contains("a\\b\"c") || line.contains("a\\\\b\\\"c"),
                "unescaped hostile value leaked: {line}"
            );
        }
        // The raw (unescaped) newline must not have produced a dangling
        // continuation line anywhere.
        assert!(text.lines().all(|l| !l.starts_with('d') || l.starts_with("d=")));
    }

    #[test]
    fn digest_quantiles_render_as_gauges() {
        let r = MetricsRegistry::enabled();
        let run = r.quantile_handle("task_run_seconds", &[("kind", "vm")]);
        for i in 1..=100 {
            run.record(i as f64 * 0.01);
        }
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE task_run_seconds_quantile gauge"));
        assert!(text.contains("task_run_seconds_quantile{kind=\"vm\",quantile=\"0.5\"}"));
        assert!(text.contains("task_run_seconds_quantile{kind=\"vm\",quantile=\"0.99\"}"));
        assert_eq!(
            text.matches("# TYPE task_run_seconds_quantile").count(),
            1
        );
    }

    #[test]
    fn histogram_sum_uses_prometheus_float_format() {
        let r = MetricsRegistry::enabled();
        r.histogram_handle_with("inf_seconds", &[], &[1.0]).observe(f64::INFINITY);
        let text = r.render_prometheus();
        assert!(text.contains("inf_seconds_sum +Inf"), "got: {text}");
    }
}

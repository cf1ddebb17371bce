//! A uniform metrics registry.
//!
//! Every layer already keeps counters in its own stats struct
//! (`ContextStats`, `HierarchyStats`, TLB hit/miss pairs, `ModuleShared`
//! totals, …). [`MetricSet`] gives them one ordered namespace —
//! dotted-path names like `cache.l1.hits` — so a whole session can be
//! dumped or diffed as a flat list.

use std::fmt;

/// A metric's value: monotonic counter or instantaneous gauge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonic count (exact).
    Count(u64),
    /// A derived/instantaneous value such as a rate.
    Gauge(f64),
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Count(v) => write!(f, "{v}"),
            MetricValue::Gauge(v) => write!(f, "{v:.6}"),
        }
    }
}

impl MetricValue {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            MetricValue::Count(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
        }
    }
}

/// Ordered name → value registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    entries: Vec<(String, MetricValue)>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Sets (or replaces) a counter.
    pub fn set_count(&mut self, name: impl Into<String>, value: u64) {
        self.set(name.into(), MetricValue::Count(value));
    }

    /// Sets (or replaces) a gauge.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.set(name.into(), MetricValue::Gauge(value));
    }

    fn set(&mut self, name: String, value: MetricValue) {
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.entries.push((name, value));
        }
    }

    /// Looks a metric up by exact name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other` into `self` (later values win on name collision).
    pub fn merge(&mut self, other: &MetricSet) {
        for (n, v) in other.iter() {
            self.set(n.to_string(), v);
        }
    }

    /// One JSON object per line: `{"metric":"name","value":123}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.iter() {
            out.push_str("{\"metric\":\"");
            crate::json::push_escaped(&mut out, name);
            out.push_str("\",\"value\":");
            value.write_json(&mut out);
            out.push_str("}\n");
        }
        out
    }

    /// A single flat JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            crate::json::push_escaped(&mut out, name);
            out.push_str("\":");
            value.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Implemented by stats structs that can contribute to a [`MetricSet`].
pub trait MetricSource {
    /// Writes this source's metrics under `prefix` (dotted-path).
    fn collect_metrics(&self, prefix: &str, out: &mut MetricSet);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_preserved_and_names_replace() {
        let mut m = MetricSet::new();
        m.set_count("b.second", 2);
        m.set_count("a.first", 1);
        m.set_count("b.second", 3);
        let names: Vec<&str> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b.second", "a.first"]);
        assert_eq!(m.get("b.second"), Some(MetricValue::Count(3)));
    }

    #[test]
    fn jsonl_and_json_are_parseable() {
        let mut m = MetricSet::new();
        m.set_count("cpu.retired", 42);
        m.set_gauge("cache.l1.hit_rate", 0.875);
        for line in m.to_jsonl().lines() {
            crate::json::validate(line).expect("jsonl line parses");
        }
        crate::json::validate(&m.to_json()).expect("object parses");
        assert!(m.to_json().contains("\"cpu.retired\":42"));
    }
}

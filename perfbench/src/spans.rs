//! Reading a finished trace: durations by name, self time, ancestry and
//! worker utilisation.

use std::collections::{BTreeMap, HashMap};

use clock_telemetry::{SpanRecord, Telemetry};

/// An enabled telemetry handle with span tracing on.
pub fn traced_telemetry() -> Telemetry {
    let t = Telemetry::enabled();
    t.enable_tracing();
    t
}

/// A finished trace indexed by span id.
pub struct Trace {
    spans: Vec<SpanRecord>,
    by_id: HashMap<u64, usize>,
}

impl Trace {
    /// Index `spans`.
    pub fn new(spans: Vec<SpanRecord>) -> Self {
        let by_id = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        Trace { spans, by_id }
    }

    /// Every span.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() as f64 * 1e-6)
            .sum()
    }

    /// The nearest ancestor of `span` named `name`.
    pub fn ancestor(&self, span: &SpanRecord, name: &str) -> Option<&SpanRecord> {
        let mut parent = span.parent;
        while let Some(&i) = self.by_id.get(&parent) {
            let s = &self.spans[i];
            if s.name == name {
                return Some(s);
            }
            parent = s.parent;
        }
        None
    }

    /// Seconds of spans named `name` minus the time of descendants whose
    /// name starts with `child_prefix`.
    pub fn self_s(&self, name: &str, child_prefix: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.name.starts_with(child_prefix) && self.ancestor(s, name).is_some())
            .map(|s| s.dur_us() as f64 * 1e-6)
            .sum();
        self.total_s(name) - children
    }

    /// Busy share of parallel workers: spans named `name` are grouped
    /// into dispatches (same parent, overlapping in time — one parent
    /// issues its dispatches one after another); each dispatch
    /// contributes its summed busy time over
    /// `workers × (last end − first start)`.
    pub fn busy_ratio(&self, name: &str) -> f64 {
        let mut by_parent: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            by_parent.entry(s.parent).or_default().push(s);
        }
        // (start, end, busy, workers) per dispatch.
        let mut groups: Vec<(u64, u64, u64, u64)> = Vec::new();
        for spans in by_parent.values_mut() {
            spans.sort_by_key(|s| s.start_us);
            let first = groups.len();
            for s in spans.iter() {
                match groups[first..].last_mut() {
                    Some(g) if s.start_us < g.1 => {
                        g.1 = g.1.max(s.end_us);
                        g.2 += s.dur_us();
                        g.3 += 1;
                    }
                    _ => groups.push((s.start_us, s.end_us, s.dur_us(), 1)),
                }
            }
        }
        let (busy, capacity) = groups
            .iter()
            .fold((0u64, 0u64), |(b, c), &(start, end, busy, n)| {
                (b + busy, c + n * end.saturating_sub(start))
            });
        if capacity == 0 {
            0.0
        } else {
            busy as f64 / capacity as f64
        }
    }

    /// Sum of the integer attribute `key` over spans named `name`, keyed
    /// by the `attr` attribute of their nearest `ancestor` span.
    pub fn attr_sum_by_ancestor(
        &self,
        name: &str,
        key: &str,
        ancestor: &str,
        attr: &str,
    ) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let Some(a) = self.ancestor(s, ancestor) else {
                continue;
            };
            let label = attr_of(a, attr).unwrap_or("?").to_owned();
            let value = attr_of(s, key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            *out.entry(label).or_insert(0) += value;
        }
        out
    }
}

/// The value of attribute `key` on `span`.
pub fn attr_of<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Add `value` to the layer metric `name`.
pub fn add(layers: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    *layers.entry(name.to_owned()).or_insert(0.0) += value;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            tid: 0,
            start_us: start,
            end_us: end,
            attrs: vec![
                ("items".to_owned(), "3".to_owned()),
                ("id".to_owned(), "fig8".to_owned()),
            ],
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let t = Trace::new(vec![
            span(1, 0, "experiment", 0, 1000),
            span(2, 1, "sweep.worker", 0, 800),
            span(3, 2, "cache.get", 100, 200),
            span(4, 2, "engine.core", 200, 700),
            span(5, 4, "cache.put", 300, 350),
            span(6, 1, "cache.put", 900, 950),
        ]);
        assert!((t.self_s("sweep.worker", "cache.") - 650e-6).abs() < 1e-12);
        assert_eq!(
            t.ancestor(&t.spans()[4], "experiment").map(|s| s.id),
            Some(1)
        );
        let items = t.attr_sum_by_ancestor("sweep.worker", "items", "experiment", "id");
        assert_eq!(items.get("fig8"), Some(&3));
    }

    #[test]
    fn busy_ratio_groups_workers_by_dispatch() {
        let t = Trace::new(vec![
            span(1, 0, "stage", 0, 100),
            span(2, 1, "sweep.worker", 0, 100),
            span(3, 1, "sweep.worker", 0, 50),
        ]);
        assert!((t.busy_ratio("sweep.worker") - 0.75).abs() < 1e-12);
        // A second dispatch under the same parent, after a gap: the gap
        // is nobody's idle time.
        let t = Trace::new(vec![
            span(1, 0, "stage", 0, 1000),
            span(2, 1, "sweep.worker", 0, 100),
            span(3, 1, "sweep.worker", 0, 50),
            span(4, 1, "sweep.worker", 900, 1000),
            span(5, 1, "sweep.worker", 900, 1000),
        ]);
        assert!((t.busy_ratio("sweep.worker") - 350.0 / 400.0).abs() < 1e-12);
        assert_eq!(Trace::new(Vec::new()).busy_ratio("sweep.worker"), 0.0);
    }
}

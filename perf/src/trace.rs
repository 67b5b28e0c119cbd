//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory while a workload runs and are written out when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the id of the span that caused it, and the
/// spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans one thread records. Ids are unique across threads because
/// each log numbers from its own `lane << 32`.
pub struct SpanLog {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, lane: u32) -> Self {
        SpanLog {
            origin,
            next_id: u64::from(lane) << 32,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves an id, so a span's children can name it before it ends.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let span = Span {
            id: self.next_id(),
            name,
            start_ns: start,
            end_ns: self.now_ns(),
            parent,
            op_id,
        };
        self.spans.push(span);
        out
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children may overlap each other (parallel
/// causes), so the covered part is the union of their intervals clipped to
/// the parent, not the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Self times grouped by span name, in nanoseconds.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name)
            .or_default()
            .push(own[&span.id] as f64);
    }
    by_name
}

/// Durations grouped by span name, in nanoseconds.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64);
    }
    by_name
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.op_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span(1, 0, 100, None),
            span(2, 10, 40, Some(1)),
            span(3, 50, 90, Some(1)),
            span(4, 55, 60, Some(3)), // grandchild: counts against 3, not 1
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 30 - 40);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 40 - 5);
        assert_eq!(own[&4], 5);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = [
            span(1, 0, 100, None),
            span(2, 10, 60, Some(1)),
            span(3, 40, 80, Some(1)),  // overlaps 2 on [40, 60)
            span(4, 90, 130, Some(1)), // runs past the parent: clipped at 100
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - (80 - 10) - (100 - 90));
    }

    #[test]
    fn span_ids_do_not_collide_across_lanes() {
        let origin = Instant::now();
        let mut a = SpanLog::new(origin, 0);
        let mut b = SpanLog::new(origin, 1);
        a.time("x", None, 0, || ());
        b.time("x", None, 0, || ());
        assert_ne!(a.spans[0].id, b.spans[0].id);
        assert!(a.spans[0].end_ns >= a.spans[0].start_ns);
    }
}

//! The benchmark's own span recorder.
//!
//! The traced run wraps every call into a layer in a span: name, start,
//! end, the span that caused it, and the request it belongs to. Spans
//! stay in memory and are written as JSON lines when the run ends. A
//! layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one statement share this identifier.
    pub request: u64,
    pub name: String,
    /// Which statement a root span ran; empty on other spans.
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One caller's spans. Each caller thread owns its recorder, so
/// recording takes no lock; `caller` keeps ids apart when they are merged.
pub struct Recorder {
    pub caller: u32,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of a run share `epoch`, so their spans share a clock.
    pub fn new(caller: u32, epoch: Instant) -> Self {
        Recorder {
            caller,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(
        &mut self,
        parent: Option<u32>,
        request: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            label: String::new(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    pub fn label(&mut self, id: u32, label: &str) {
        self.spans[id as usize].label = label.to_string();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in the order of `spans`: its duration minus
/// the union of its children's intervals, each clipped to the parent.
/// Overlapping children (parallel workers) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Append every recorder's spans to `w`, one JSON object per line.
pub fn write_jsonl(w: &mut impl Write, recorders: &[Recorder]) -> std::io::Result<()> {
    for r in recorders {
        for (s, own) in r.spans().iter().zip(self_times(r.spans())) {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                w,
                "{{\"caller\": {}, \"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"label\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                r.caller,
                s.id,
                parent,
                s.request,
                json::escape(&s.name),
                json::escape(&s.label),
                s.start_ns,
                s.end_ns,
                own
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            label: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Two workers overlap on [20, 40); one child overhangs the parent.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 20, 60),
            span(3, Some(0), 90, 150),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn by_name_sums_and_jsonl_is_one_object_per_line() {
        let mut r = Recorder::new(7, Instant::now());
        let root = r.push(None, 3, "client.query", 0, 1000);
        r.push(Some(root), 3, "server \"total\"", 100, 900);
        r.push(None, 4, "client.query", 1000, 1500);
        let by = self_time_by_name(r.spans());
        assert_eq!(by["client.query"], (200 + 500, 2));
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[r]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("caller").and_then(json::Json::as_f64), Some(7.0));
        }
        assert!(text.contains("server \\\"total\\\""));
    }
}

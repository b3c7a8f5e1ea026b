//! Spans around the calls the benchmark makes into the product, kept in
//! memory and written out when the run ends. A span's self time is its
//! duration minus the part its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the recorder's origin.
    pub start: Duration,
    pub end: Duration,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The operation (step) this span belongs to.
    pub op: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, op: u64) {
        let now = self.origin.elapsed();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.iter().rev().nth(1).copied(),
            op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end = self.origin.elapsed();
    }

    /// Self time of each span, by index.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Total self time and call count per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Duration, u64)> {
        let mut out: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON array of
    /// `{name,start_ns,end_ns,parent,op}` objects.
    pub fn write_json(&self, mut w: impl Write) -> std::io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                parent,
                s.op,
                comma
            )?;
        }
        writeln!(w, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = Spans {
            origin: Instant::now(),
            spans: vec![
                span("step", 0, 100, None),
                span("insert", 10, 60, Some(0)),
                span("wal", 20, 30, Some(1)),
                span("remove", 70, 90, Some(0)),
            ],
            open: Vec::new(),
        };
        let own: Vec<u64> = s
            .self_times()
            .iter()
            .map(|d| d.as_micros() as u64)
            .collect();
        assert_eq!(own, vec![30, 40, 10, 20]);
        let by = s.by_name();
        assert_eq!(by["step"], (Duration::from_micros(30), 1));
        let total: Duration = by.values().map(|v| v.0).sum();
        assert_eq!(total, Duration::from_micros(100));
    }

    #[test]
    fn enter_exit_nest_and_serialise() {
        let mut s = Spans::new();
        s.enter("step", 7);
        s.enter("insert", 7);
        s.exit();
        s.enter("remove", 7);
        s.exit();
        s.exit();
        let parents: Vec<Option<usize>> = s.spans.iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(s.spans[0].end >= s.spans[2].end);
        let mut out = Vec::new();
        s.write_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"name\"").count(), 3);
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":0"));
    }
}

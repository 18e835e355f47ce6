//! Boundary spans: the driver's own calls into each layer, recorded as
//! (name, start, end, parent, frame) into a buffer allocated before the
//! pass starts, aggregated after it ends.
//!
//! Nothing here reaches into the engine — a span is two clock reads
//! around a public call. A layer's self time is its span minus the part
//! its child spans cover.

use std::io::Write;
use std::time::Instant;

/// "No parent" / "no frame" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root: everything done for one offered frame.
    Frame,
    /// `Packet::from_bytes`.
    WireParse,
    /// `Reassembler::push` (fragment frames only).
    FragPush,
    /// `StreamScorer::push`.
    StreamPush,
    /// `StreamScorer::drain_closed` (child of the frame that triggered it)
    /// or `finish` (a root of its own).
    StreamDrain,
}

impl Name {
    const COUNT: usize = 5;

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Frame => "frame",
            Name::WireParse => "wire.parse",
            Name::FragPush => "frag.push",
            Name::StreamPush => "stream.push",
            Name::StreamDrain => "stream.drain",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Index of the span that caused this one, or [`NONE`] for a root.
    pub parent: u32,
    /// Index of the offered frame all spans of one frame share, or
    /// [`NONE`] for the end-of-stream `finish`.
    pub frame: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations the calling thread made inside the span.
    pub allocs: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn with_capacity(spans: usize) -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Appends a span and returns its index (for use as a `parent`).
    pub fn record(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn get_mut(&mut self, idx: u32) -> &mut Span {
        &mut self.spans[idx as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"frame\":{},\"allocs\":{}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.frame),
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
    pub allocs: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Aggregate {
    layers: [Layer; Name::COUNT],
    /// Sum over root spans.
    pub root_ns: u64,
}

impl Aggregate {
    pub fn of(spans: &[Span]) -> Aggregate {
        let mut agg = Aggregate::default();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent == NONE {
                agg.root_ns += s.ns();
            } else {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        for (s, children) in spans.iter().zip(&child_ns) {
            let l = &mut agg.layers[s.name as usize];
            l.total_ns += s.ns();
            l.self_ns += s.ns().saturating_sub(*children);
            l.allocs += u64::from(s.allocs);
        }
        agg
    }

    pub fn layer(&self, name: Name) -> Layer {
        self.layers[name as usize]
    }

    /// Time inside a call into some layer: the roots, less what the
    /// `frame` roots spent outside their children (fetching the slice,
    /// freeing the packet, recording spans).
    pub fn in_layers_ns(&self) -> u64 {
        self.root_ns - self.layer(Name::Frame).self_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            frame: 0,
            start_ns,
            end_ns,
            allocs: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(Name::Frame, NONE, 0, 100),         // 0
            span(Name::WireParse, 0, 0, 10),         // child of 0
            span(Name::StreamPush, 0, 10, 70),       // child of 0
            span(Name::StreamDrain, 0, 70, 90),      // child of 0
            span(Name::Frame, NONE, 100, 150),       // 4
            span(Name::WireParse, 4, 100, 105),      // child of 4
            span(Name::FragPush, 4, 105, 140),       // child of 4
            span(Name::StreamDrain, NONE, 150, 400), // finish: a root
        ];
        let agg = Aggregate::of(&spans);
        let frame = agg.layer(Name::Frame);
        assert_eq!(frame.total_ns, 150);
        // 100 - (10 + 60 + 20) = 10, and 50 - (5 + 35) = 10.
        assert_eq!(frame.self_ns, 20);
        let parse = agg.layer(Name::WireParse);
        assert_eq!((parse.total_ns, parse.self_ns), (15, 15));
        let drain = agg.layer(Name::StreamDrain);
        assert_eq!((drain.total_ns, drain.self_ns), (270, 270));
        assert_eq!(agg.layer(Name::FragPush).total_ns, 35);
        assert_eq!(agg.layer(Name::StreamPush).allocs, 1);
        // Roots: two frames and the finish.
        assert_eq!(agg.root_ns, 100 + 50 + 250);
        assert_eq!(agg.in_layers_ns(), 400 - 20);
    }

    #[test]
    fn self_time_never_underflows_on_overlapping_children() {
        // Children that (wrongly) cover more than the parent clamp to zero.
        let spans = [
            span(Name::Frame, NONE, 0, 10),
            span(Name::WireParse, 0, 0, 8),
            span(Name::StreamPush, 0, 2, 10),
        ];
        assert_eq!(Aggregate::of(&spans).layer(Name::Frame).self_ns, 0);
    }

    #[test]
    fn empty_layers_report_zero() {
        let agg = Aggregate::of(&[]);
        assert_eq!(agg.layer(Name::FragPush), Layer::default());
        assert_eq!(agg.root_ns, 0);
    }
}

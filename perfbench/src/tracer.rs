//! In-memory spans recorded from the benchmark's side of each layer
//! boundary: name, start, end, parent span, and the operation id every
//! span of one solve or request shares. Written out only on request,
//! after the run.

use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    /// First operation id of the current replay section, so ids stay
    /// unique across the replays of one run.
    base: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            base: 0,
        }
    }

    /// Start a new replay section: its operation 0 gets the next unused id.
    pub fn section(&mut self) {
        self.base = self.spans.last().map_or(0, |s| s.op + 1);
    }

    /// Spans begun from now on belong to operation `op` of this section.
    pub fn set_op(&mut self, op: usize) {
        self.op = self.base + op as u32;
    }

    /// The section-relative operation of span `s`.
    pub fn op_of(&self, s: &Span) -> usize {
        (s.op - self.base) as usize
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let span = Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(id as u32);
        id
    }

    /// Close span `id` (the innermost open one); returns its length in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let t = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id as u32), "spans must close innermost first");
        self.spans[id].end_ns = t;
        self.spans[id].ns()
    }

    /// Self time of every span: its length minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.ns();
            }
        }
        own
    }

    /// Sum of self time over spans named `name`, and their count.
    pub fn self_total(&self, name: &str) -> (u64, usize) {
        let own = self.self_ns();
        let mut total = 0;
        let mut count = 0;
        for (s, t) in self.spans.iter().zip(own) {
            if s.name == name {
                total += t;
                count += 1;
            }
        }
        (total, count)
    }

    /// Write every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

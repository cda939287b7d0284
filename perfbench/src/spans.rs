//! In-memory span recorder for the traced run. Spans are host-time
//! intervals around the benchmark's calls into each layer; they are
//! written out once, when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the recorder was
/// created, so they are host-dependent and outside the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Shared by every span under one top-level call.
    pub call: usize,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    calls: RefCell<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            calls: RefCell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. A span opened with no span open around it
    /// starts a new call id; nested spans inherit their parent's.
    pub fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let call = match parent {
            Some(p) => self.spans.borrow()[p].call,
            None => {
                let mut c = self.calls.borrow_mut();
                *c += 1;
                *c
            }
        };
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                call,
                layer,
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Sum of the durations of closed spans whose name starts with
    /// `prefix`.
    pub fn total_secs(&self, prefix: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::secs)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"host ns since start, host-dependent\", \"spans\": ["
        );
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {}, \"parent\": {parent}, \"call\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.call,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

//! In-memory spans for the traced run.
//!
//! Each span records a name, start and end, the span that contains it
//! and the plan cell it ran for. Spans are kept per thread while a cell
//! runs and handed back with the cell's outputs ([`take`]), so the
//! recorder needs no lock. With tracing off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Cell id for spans recorded outside any plan cell (the main thread).
pub const MAIN: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One closed span. `parent` indexes the list it was taken in.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub cell: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    cell: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder { cell: MAIN, ..Recorder::default() });
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len();
        let span = Span {
            name,
            cell: r.cell,
            parent: r.open.last().copied(),
            start_ns: now_ns(),
            end_ns: 0,
        };
        r.spans.push(span);
        r.open.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert_eq!(r.open.pop(), Some(idx), "spans close in nesting order");
        r.spans[idx].end_ns = now_ns();
    });
    out
}

/// Tag the spans this thread records from now on with `cell`.
pub fn set_cell(cell: u32) {
    REC.with(|r| r.borrow_mut().cell = cell);
}

/// Hand back every span this thread has closed since the last call.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "take() with a span still open");
        std::mem::take(&mut r.spans)
    })
}

/// Self time per span name in seconds: each span's duration minus the
/// durations of the spans it directly contains. `spans` is one list as
/// returned by [`take`], so parent indexes are valid within it.
pub fn self_secs(spans: &[Span], into: &mut BTreeMap<&'static str, f64>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    for (s, c) in spans.iter().zip(child_ns) {
        *into.entry(s.name).or_default() += s.dur_ns().saturating_sub(c) as f64 / 1e9;
    }
}

/// Spans as JSON lines; `parent` is an index into the same list.
pub fn to_jsonl(lists: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for (list_id, spans) in lists.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = if s.cell == MAIN {
                "null".to_string()
            } else {
                s.cell.to_string()
            };
            out.push_str(&format!(
                "{{\"list\":{list_id},\"id\":{i},\"name\":\"{}\",\"cell\":{cell},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
    }
    out
}

//! Spans recorded from outside the program, around calls into each
//! layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), start and end in wall
//! nanoseconds since the tracer's epoch, the span that caused it, the
//! rank thread that issued it and the run it belongs to. Session spans
//! also carry the rank's virtual (modelled) clock at both ends and the
//! deltas of a fixed set of counters read at the same boundaries:
//! `Pfs::counters()`, `Comm::counters()` and `Database::stats()`.
//!
//! Spans are kept in memory and written out once, when the benchmark
//! ends. Store spans opened by the timing decorator nest under the
//! session span open on the same thread, through a thread-local stack.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sdm_metadb::Database;
use sdm_mpi::Comm;
use sdm_pfs::Pfs;

/// Rank value of spans issued outside any rank thread.
pub const NO_RANK: u32 = u32::MAX;

/// Counters read at session-span boundaries, in this order.
pub const COUNTERS: [&str; 10] = [
    "pfs.read_bytes",
    "pfs.read_ops",
    "pfs.write_bytes",
    "pfs.write_ops",
    "pfs.opens",
    "pfs.metadata_ops",
    "mpi.send_bytes",
    "mpi.sends",
    "metadb.transactions",
    "metadb.wal_fsyncs",
];

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 when the span has no parent.
    pub parent: u64,
    pub name: &'static str,
    pub rank: u32,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Virtual seconds at start and end (session spans only).
    pub virt: Option<(f64, f64)>,
    /// Deltas of [`COUNTERS`] over the span (session spans only).
    pub counters: Option<[u64; COUNTERS.len()]>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static RANK: Cell<u32> = const { Cell::new(NO_RANK) };
}

/// The span recorder shared by every rank thread of a traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Tag every span opened from now on with run id `run`.
    pub fn begin_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// Bind the calling thread to `rank` (call first thing in a rank
    /// closure; rank threads are fresh for every `World::run`).
    pub fn bind_rank(&self, rank: usize) {
        RANK.with(|r| r.set(rank as u32));
        STACK.with(|s| s.borrow_mut().clear());
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self) -> (u64, u64, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let p = s.last().copied().unwrap_or(0);
            s.push(id);
            p
        });
        (id, parent, self.now_ns())
    }

    fn close(&self, mut span: Span) {
        span.end_ns = self.now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        span.rank = RANK.with(Cell::get);
        span.run = self.run.load(Ordering::Relaxed);
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Time `f` as a span named `name`, nested under the span open on
    /// this thread.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (id, parent, start_ns) = self.open();
        let out = f();
        self.close(Span {
            id,
            parent,
            name,
            rank: 0,
            run: 0,
            start_ns,
            end_ns: 0,
            virt: None,
            counters: None,
        });
        out
    }

    /// Time a session call: wall and virtual clocks plus counter deltas
    /// at both boundaries.
    pub fn session<T>(
        &self,
        probe: &Probe<'_>,
        comm: &mut Comm,
        name: &'static str,
        f: impl FnOnce(&mut Comm) -> T,
    ) -> T {
        let before = probe.read(comm);
        let v0 = comm.now();
        let (id, parent, start_ns) = self.open();
        let out = f(comm);
        let v1 = comm.now();
        let after = probe.read(comm);
        let mut delta = [0u64; COUNTERS.len()];
        for (d, (a, b)) in delta.iter_mut().zip(after.iter().zip(&before)) {
            *d = a.saturating_sub(*b);
        }
        self.close(Span {
            id,
            parent,
            name,
            rank: 0,
            run: 0,
            start_ns,
            end_ns: 0,
            virt: Some((v0, v1)),
            counters: Some(delta),
        });
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Write the spans of the runs in `runs` as one JSON object per
    /// line.
    pub fn write_jsonl(&self, path: &Path, header: &str, runs: &[u32]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let spans = self.spans.lock().expect("span list poisoned");
        for s in spans.iter().filter(|s| runs.contains(&s.run)) {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"rank\":{},\"run\":{},\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent,
                s.name,
                if s.rank == NO_RANK { -1 } else { i64::from(s.rank) },
                s.run,
                s.start_ns,
                s.end_ns
            )?;
            if let Some((v0, v1)) = s.virt {
                write!(out, ",\"virt_start_s\":{v0},\"virt_end_s\":{v1}")?;
            }
            if let Some(c) = s.counters {
                write!(out, ",\"counters\":{{")?;
                for (i, (name, v)) in COUNTERS.iter().zip(c).enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    write!(out, "{sep}\"{name}\":{v}")?;
                }
                write!(out, "}}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Where session spans read their counters.
pub struct Probe<'a> {
    pub pfs: &'a Pfs,
    pub db: &'a Database,
}

impl Probe<'_> {
    fn read(&self, comm: &Comm) -> [u64; COUNTERS.len()] {
        let p = self.pfs.counters();
        let c = comm.counters();
        let st = self.db.stats();
        [
            p.get("pfs.read_bytes"),
            p.get("pfs.read_ops"),
            p.get("pfs.write_bytes"),
            p.get("pfs.write_ops"),
            p.get("pfs.opens"),
            p.get("pfs.metadata_ops"),
            c.get("mpi.send_bytes"),
            c.get("mpi.sends"),
            st.transactions,
            st.wal_fsyncs,
        ]
    }
}

/// Wall seconds of `parent` covered by its children (the union of the
/// child intervals, clipped to the parent).
pub fn child_coverage_s(parent: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "store.flush",
            rank: 0,
            run: 1,
            start_ns,
            end_ns,
            virt: None,
            counters: None,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let p = span(1, 0, 100, 200);
        let a = span(2, 1, 90, 120);
        let b = span(3, 1, 110, 130);
        let c = span(4, 1, 190, 250);
        let cov = child_coverage_s(&p, &[&a, &b, &c]);
        assert!((cov - 40e-9).abs() < 1e-15, "{cov}");
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::default();
        t.bind_rank(0);
        t.span("session.init", || t.span("store.flush", || ()));
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "store.flush").unwrap();
        let outer = spans.iter().find(|s| s.name == "session.init").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}

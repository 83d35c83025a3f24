//! Spans recorded in memory at each wrapper boundary of the traced pass:
//! the wrappers themselves ([`TimedDataset`], [`TimedTracer`]), the
//! recorder they share, self-time derivation, and the spans file.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use lotus::dataflow::{Dataset, Tracer, TrainingJob};
use lotus::sim::{ReadOutcome, Span, Time};
use lotus::transforms::{PipelineError, Sample, TransformCtx, TransformObserver};

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static THREAD_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's index into [`THREAD_NAMES`].
    static THREAD: u32 = {
        let mut names = THREAD_NAMES.lock().unwrap_or_else(PoisonError::into_inner);
        names.push(std::thread::current().name().unwrap_or("unnamed").to_string());
        (names.len() - 1) as u32
    };
}

/// One recorded span. Spans of one sample share its dataset index as
/// `key`; spans of one batch share its batch id.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The crate whose entry point the span wraps.
    pub layer: &'static str,
    /// The wrapped call.
    pub name: Cow<'static, str>,
    /// Sample index or batch id.
    pub key: u64,
    /// Index of the recording thread's name.
    pub thread: u32,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from every thread of one traced run.
///
/// A span's parent is the innermost span open on the same thread; a span
/// opened on a thread with none open (a loader worker) hangs under the
/// open root span.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    root: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// Pops the thread's open-span stack even when the wrapped call unwinds
/// (a panicking dataset is caught by the loader worker).
struct OpenGuard;

impl Drop for OpenGuard {
    fn drop(&mut self) {
        OPEN.with(|open| open.borrow_mut().pop());
    }
}

impl Recorder {
    /// A recorder whose span times count from `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn current_parent(&self) -> u64 {
        OPEN.with(|open| open.borrow().last().copied())
            .unwrap_or_else(|| self.root.load(Ordering::Acquire))
    }

    fn push(&self, rec: SpanRec) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(rec);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: impl Into<Cow<'static, str>>,
        key: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.open(layer, name.into(), key, false, f)
    }

    /// Runs `f` inside a root span: spans that other threads open while
    /// it runs become its children.
    pub fn root_span<R>(
        &self,
        layer: &'static str,
        name: impl Into<Cow<'static, str>>,
        key: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.open(layer, name.into(), key, true, f)
    }

    fn open<R>(
        &self,
        layer: &'static str,
        name: Cow<'static, str>,
        key: u64,
        root: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = if root { 0 } else { self.current_parent() };
        OPEN.with(|open| open.borrow_mut().push(id));
        if root {
            self.root.store(id, Ordering::Release);
        }
        let start = Instant::now();
        let result = {
            let _guard = OpenGuard;
            f()
        };
        let end = Instant::now();
        if root {
            self.root.store(0, Ordering::Release);
        }
        self.push(SpanRec {
            id,
            parent,
            layer,
            name,
            key,
            thread: THREAD.with(|t| *t),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        result
    }

    /// Records a finished span under the innermost open span.
    pub fn leaf(
        &self,
        layer: &'static str,
        name: impl Into<Cow<'static, str>>,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(SpanRec {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: self.current_parent(),
            layer,
            name: name.into(),
            key,
            thread: THREAD.with(|t| *t),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// The first `n` spans in opening order. A span opens before its
/// children, so every kept span's parent is kept too.
pub fn earliest(mut spans: Vec<SpanRec>, n: usize) -> Vec<SpanRec> {
    spans.sort_unstable_by_key(|s| s.id);
    spans.truncate(n);
    spans
}

/// Writes `spans` as JSON: a per-layer summary, the thread names, and one
/// span per line with its self time. `recorded` is how many spans the
/// pass recorded before any were left out of the file.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    recorded: usize,
    spans: &[SpanRec],
) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = layers.entry(s.layer).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    let mut out = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans_recorded\": {recorded},\n  \"layers\": {{"
    );
    for (i, (layer, (n, total, own))) in layers.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    \"{layer}\": {{\"spans\": {n}, \"total_ms\": {:?}, \"self_ms\": {:?}}}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    let names = THREAD_NAMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let names: Vec<String> = names.iter().map(|n| format!("{n:?}")).collect();
    let _ = write!(
        out,
        "\n  }},\n  \"threads\": [{}],\n  \"spans\": [",
        names.join(", ")
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": {:?}, \"key\": {}, \
             \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.id,
            s.parent,
            s.layer,
            s.name.as_ref(),
            s.key,
            s.thread,
            s.start_ns,
            s.end_ns,
            selfs[&s.id]
        );
    }
    out.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Wraps `job`'s dataset in a [`TimedDataset`] and its trace sinks in a
/// [`TimedTracer`], both recording into `rec`.
pub fn instrument(job: &mut TrainingJob, rec: &Arc<Recorder>) {
    job.dataset = Arc::new(TimedDataset::new(Arc::clone(&job.dataset), Arc::clone(rec)));
    job.tracer = Arc::new(TimedTracer::new(Arc::clone(&job.tracer), Arc::clone(rec)));
}

/// Times every `get_item` of the wrapped program dataset (layer
/// `workloads`) and, through the observer it hands down, every op inside
/// it: `Loader` (layer `codec`: synthesis, encode, decode) and each
/// transform (layer `transforms`).
pub struct TimedDataset {
    inner: Arc<dyn Dataset>,
    rec: Arc<Recorder>,
}

impl TimedDataset {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Dataset>, rec: Arc<Recorder>) -> TimedDataset {
        TimedDataset { inner, rec }
    }
}

impl Dataset for TimedDataset {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn get_item(
        &self,
        index: u64,
        ctx: &mut TransformCtx<'_>,
        observer: &mut dyn TransformObserver,
    ) -> Result<Sample, PipelineError> {
        self.rec.span("workloads", "get_item", index, || {
            let mut ops = OpSpans {
                inner: observer,
                rec: &self.rec,
                key: index,
                mark: Instant::now(),
            };
            self.inner.get_item(index, ctx, &mut ops)
        })
    }

    fn cost_hint(&self, index: u64) -> Option<u64> {
        self.inner.cost_hint(index)
    }
}

/// Stamps wall time at each op callback and forwards it. The op ran from
/// the previous stamp to this one.
struct OpSpans<'a> {
    inner: &'a mut dyn TransformObserver,
    rec: &'a Recorder,
    key: u64,
    mark: Instant,
}

impl TransformObserver for OpSpans<'_> {
    fn on_transform(&mut self, name: &str, start: Time, elapsed: Span) {
        let now = Instant::now();
        let layer = if name == "Loader" {
            "codec"
        } else {
            "transforms"
        };
        self.rec
            .leaf(layer, name.to_string(), self.key, self.mark, now);
        self.inner.on_transform(name, start, elapsed);
        self.mark = Instant::now();
    }

    fn on_storage_read(&mut self, start: Time, read: &ReadOutcome) {
        self.inner.on_storage_read(start, read);
    }
}

/// Times every call into the wrapped trace sinks (layer `core`).
pub struct TimedTracer {
    inner: Arc<dyn Tracer>,
    rec: Arc<Recorder>,
}

impl TimedTracer {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Tracer>, rec: Arc<Recorder>) -> TimedTracer {
        TimedTracer { inner, rec }
    }

    fn timed(&self, name: &'static str, key: u64, f: impl FnOnce() -> Span) -> Span {
        self.rec.span("core", name, key, f)
    }
}

impl Tracer for TimedTracer {
    fn on_op(&self, pid: u32, batch_id: u64, name: &str, start: Time, dur: Span) -> Span {
        self.timed("on_op", batch_id, || {
            self.inner.on_op(pid, batch_id, name, start, dur)
        })
    }

    fn on_batch_preprocessed(&self, pid: u32, batch_id: u64, start: Time, dur: Span) -> Span {
        self.timed("on_batch_preprocessed", batch_id, || {
            self.inner.on_batch_preprocessed(pid, batch_id, start, dur)
        })
    }

    fn on_batch_dispatched(
        &self,
        batch_id: u64,
        to_pid: u32,
        indices: &[u64],
        redispatch: bool,
        at: Time,
    ) -> Span {
        self.timed("on_batch_dispatched", batch_id, || {
            self.inner
                .on_batch_dispatched(batch_id, to_pid, indices, redispatch, at)
        })
    }

    fn on_batch_wait(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        out_of_order: bool,
        queue_delay: Span,
    ) -> Span {
        self.timed("on_batch_wait", batch_id, || {
            self.inner
                .on_batch_wait(pid, batch_id, start, dur, out_of_order, queue_delay)
        })
    }

    fn on_batch_consumed(
        &self,
        pid: u32,
        batch_id: u64,
        start: Time,
        dur: Span,
        batch_len: usize,
    ) -> Span {
        self.timed("on_batch_consumed", batch_id, || {
            self.inner
                .on_batch_consumed(pid, batch_id, start, dur, batch_len)
        })
    }

    fn on_storage_read(&self, pid: u32, batch_id: u64, start: Time, read: &ReadOutcome) -> Span {
        self.timed("on_storage_read", batch_id, || {
            self.inner.on_storage_read(pid, batch_id, start, read)
        })
    }

    fn on_fault_injected(&self, pid: u32, batch_id: u64, op: &str, at: Time) -> Span {
        self.timed("on_fault_injected", batch_id, || {
            self.inner.on_fault_injected(pid, batch_id, op, at)
        })
    }

    fn on_worker_died(&self, pid: u32, at: Time) -> Span {
        self.timed("on_worker_died", u64::from(pid), || {
            self.inner.on_worker_died(pid, at)
        })
    }

    fn on_batch_redispatched(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.timed("on_batch_redispatched", batch_id, || {
            self.inner
                .on_batch_redispatched(batch_id, from_pid, to_pid, at)
        })
    }

    fn on_batch_stolen(&self, batch_id: u64, from_pid: u32, to_pid: u32, at: Time) -> Span {
        self.timed("on_batch_stolen", batch_id, || {
            self.inner.on_batch_stolen(batch_id, from_pid, to_pid, at)
        })
    }

    fn on_lane_assigned(&self, batch_id: u64, lane: &str, to_pid: u32, at: Time) -> Span {
        self.timed("on_lane_assigned", batch_id, || {
            self.inner.on_lane_assigned(batch_id, lane, to_pid, at)
        })
    }

    fn on_prefetch_resized(&self, target: usize, at: Time) -> Span {
        self.timed("on_prefetch_resized", target as u64, || {
            self.inner.on_prefetch_resized(target, at)
        })
    }

    fn on_gauge(&self, name: &str, value: f64, at: Time) -> Span {
        self.timed("on_gauge", 0, || self.inner.on_gauge(name, value, at))
    }

    fn compute_dilation(&self) -> f64 {
        self.inner.compute_dilation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let rec = Arc::new(Recorder::new(Instant::now()));
        rec.root_span("bench", "root", 0, || {
            std::thread::scope(|s| {
                s.spawn(|| rec.span("workloads", "worker", 1, || {}));
            });
            rec.span("core", "inner", 2, || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let spans = rec.spans();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        for s in spans.iter().filter(|s| s.id != root.id) {
            assert_eq!(s.parent, root.id, "{s:?}");
            assert!(s.start_ns >= root.start_ns && s.end_ns <= root.end_ns);
        }
        let selfs = self_times(&spans);
        assert!(selfs[&root.id] + 2_000_000 <= root.dur_ns());
    }
}

//! Host-time spans around the simulator's layer boundaries.
//!
//! Two wrappers, both installed from outside the simulator through public
//! seams, record the spans:
//!
//! * [`Probed`] wraps a [`RankProgram`] so that every poll of a rank future
//!   is a `simcore.vm.poll` span. Untraced it only notes the instant of the
//!   first poll, which ends a run's set-up phase.
//! * [`TracedFabric`] decorates a `qsnet::Fabric`: each `*_boxed` call is a
//!   fabric span, and every completion or per-destination callback the
//!   fabric later fires is an engine callback span.
//!
//! Spans nest (a delivery callback issues puts and resumes ranks), so each
//! span's self time is its duration minus the time its children cover.
//! Keeping every span is unaffordable (one `slice_idle` job fires over a
//! million multicast callbacks), so spans are folded on close into one
//! aggregate per (job, span name). All state is thread-local: the
//! benchmark drives the simulator from a single thread.

use mpi_api::{AsyncMpi, RankProgram};
use qsnet::{
    Degradation, Fabric, FabricKind, FabricSnapshot, FabricStats, NetModel, NodeId, OnDone,
    Topology,
};
use simcore::{Sim, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// Every span the benchmark records. `VmPoll` is declared first: it is the
/// smallest key, which range queries over (job, span) rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Span {
    VmPoll,
    QsnetPut,
    QsnetGet,
    QsnetMulticast,
    QsnetConditional,
    RdmaPut,
    RdmaGet,
    RdmaMulticast,
    RdmaConditional,
    CoreDeliveryCb,
    CoreMcastDestCb,
    QuadricsDeliveryCb,
}

impl Span {
    /// Metric prefix of the span: `<layer>.<operation>`.
    pub fn name(self) -> &'static str {
        match self {
            Span::VmPoll => "simcore.vm.poll",
            Span::QsnetPut => "qsnet.put",
            Span::QsnetGet => "qsnet.get",
            Span::QsnetMulticast => "qsnet.multicast",
            Span::QsnetConditional => "qsnet.conditional",
            Span::RdmaPut => "rdmanet.put",
            Span::RdmaGet => "rdmanet.get",
            Span::RdmaMulticast => "rdmanet.multicast",
            Span::RdmaConditional => "rdmanet.conditional",
            Span::CoreDeliveryCb => "core.delivery_cb",
            Span::CoreMcastDestCb => "core.mcast_dest_cb",
            Span::QuadricsDeliveryCb => "quadrics-mpi.delivery_cb",
        }
    }
}

/// Closed spans of one name within one job, folded together.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub calls: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed durations minus the time covered by child spans.
    pub self_time: Duration,
    /// Work units the caller attached: bytes for put/get, destinations for
    /// a multicast.
    pub units: u64,
    /// Summed durations of the spans that had no parent.
    pub root: Duration,
}

struct Frame {
    span: Span,
    start: Instant,
    children: Duration,
}

#[derive(Default)]
struct State {
    enabled: bool,
    job: u32,
    stack: Vec<Frame>,
    aggs: BTreeMap<(u32, Span), Agg>,
    first_poll: Option<Instant>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Turn span recording on or off and name the job subsequent spans belong
/// to. Any span left open by a job that panicked is discarded.
pub fn begin_job(job: u32, enabled: bool) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.enabled = enabled;
        s.job = job;
        s.stack.clear();
    });
}

/// Start a run's set-up clock: forget the previous run's first poll.
pub fn arm_first_poll() {
    STATE.with(|s| s.borrow_mut().first_poll = None);
}

/// Instant the current run first polled a rank future, if it has.
pub fn first_poll() -> Option<Instant> {
    STATE.with(|s| s.borrow().first_poll)
}

/// Remove and return every aggregate recorded so far.
pub fn take_aggs() -> BTreeMap<(u32, Span), Agg> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().aggs))
}

/// An open span; closing happens on drop, so a span unwound by a panic
/// still closes.
pub struct Guard {
    open: bool,
}

/// Open `span` carrying `units` of work if recording is on.
pub fn enter(span: Span, units: u64) -> Guard {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.enabled {
            return Guard { open: false };
        }
        let job = s.job;
        s.aggs.entry((job, span)).or_default().units += units;
        s.stack.push(Frame {
            span,
            start: Instant::now(),
            children: Duration::ZERO,
        });
        Guard { open: true }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let end = Instant::now();
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let Some(frame) = s.stack.pop() else {
                return; // the job was reset while this span was open
            };
            let dur = end.saturating_duration_since(frame.start);
            let is_root = match s.stack.last_mut() {
                Some(parent) => {
                    parent.children += dur;
                    false
                }
                None => true,
            };
            let job = s.job;
            let agg = s.aggs.entry((job, frame.span)).or_default();
            agg.calls += 1;
            agg.total += dur;
            agg.self_time += dur.saturating_sub(frame.children);
            if is_root {
                agg.root += dur;
            }
        });
    }
}

/// Note the first poll of the current run, then open a poll span.
fn enter_poll() -> Guard {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.first_poll.is_none() {
            s.first_poll = Some(Instant::now());
        }
    });
    enter(Span::VmPoll, 0)
}

/// A [`RankProgram`] whose rank futures report their polls.
pub struct Probed<P>(pub P);

impl<P: RankProgram> RankProgram for Probed<P> {
    type Out = P::Out;

    fn boot(&self, mpi: AsyncMpi) -> Pin<Box<dyn Future<Output = P::Out>>> {
        Box::pin(ProbedFuture(self.0.boot(mpi)))
    }
}

struct ProbedFuture<O>(Pin<Box<dyn Future<Output = O>>>);

impl<O> Future for ProbedFuture<O> {
    type Output = O;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<O> {
        let _g = enter_poll();
        self.0.as_mut().poll(cx)
    }
}

/// Span names one decorated fabric reports under.
#[derive(Clone, Copy, Debug)]
struct FabricSpans {
    put: Span,
    get: Span,
    multicast: Span,
    conditional: Span,
    done_cb: Span,
    dest_cb: Span,
}

impl FabricSpans {
    /// Wire spans named after `kind`; callback spans after the engine
    /// (`bcs` true: BCS-MPI's `core`, false: `quadrics-mpi`).
    fn new(kind: FabricKind, bcs: bool) -> FabricSpans {
        let (put, get, multicast, conditional) = match kind {
            FabricKind::QsNet => (
                Span::QsnetPut,
                Span::QsnetGet,
                Span::QsnetMulticast,
                Span::QsnetConditional,
            ),
            FabricKind::Rdma => (
                Span::RdmaPut,
                Span::RdmaGet,
                Span::RdmaMulticast,
                Span::RdmaConditional,
            ),
        };
        let (done_cb, dest_cb) = if bcs {
            (Span::CoreDeliveryCb, Span::CoreMcastDestCb)
        } else {
            (Span::QuadricsDeliveryCb, Span::QuadricsDeliveryCb)
        };
        FabricSpans {
            put,
            get,
            multicast,
            conditional,
            done_cb,
            dest_cb,
        }
    }
}

/// A fabric that times every wire call and every callback it fires,
/// delegating all behaviour to the fabric it wraps.
struct TracedFabric<W: 'static> {
    inner: Box<dyn Fabric<W>>,
    spans: FabricSpans,
}

/// Replace the fabric in `slot` by a [`TracedFabric`] around it.
pub fn install<W: 'static>(slot: &mut Box<dyn Fabric<W>>, bcs: bool) {
    let placeholder = rdmanet::build_fabric(FabricKind::QsNet, NetModel::qsnet(), 1);
    let inner = std::mem::replace(slot, placeholder);
    let spans = FabricSpans::new(inner.kind(), bcs);
    *slot = Box::new(TracedFabric { inner, spans });
}

fn traced_done<W: 'static>(span: Span, cb: OnDone<W>) -> OnDone<W> {
    Box::new(move |w: &mut W, sim: &mut Sim<W>| {
        let _g = enter(span, 0);
        cb(w, sim)
    })
}

impl<W: 'static> Fabric<W> for TracedFabric<W> {
    fn kind(&self) -> FabricKind {
        self.inner.kind()
    }
    fn model(&self) -> &NetModel {
        self.inner.model()
    }
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
    fn stats(&self) -> &FabricStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn note_gather(&mut self, msgs: u64, logical_bytes: u64) {
        self.inner.note_gather(msgs, logical_bytes)
    }
    fn kill_node(&mut self, node: NodeId) {
        self.inner.kill_node(node)
    }
    fn revive_node(&mut self, node: NodeId) {
        self.inner.revive_node(node)
    }
    fn is_dead(&self, node: NodeId) -> bool {
        self.inner.is_dead(node)
    }
    fn degrade_link(&mut self, d: Degradation) {
        self.inner.degrade_link(d)
    }
    fn clear_degradations(&mut self) {
        self.inner.clear_degradations()
    }
    fn plan_drops(&mut self, seqs: Vec<u64>) {
        self.inner.plan_drops(seqs)
    }
    fn bulk_seq(&self) -> u64 {
        self.inner.bulk_seq()
    }
    fn snapshot(&mut self) -> FabricSnapshot {
        self.inner.snapshot()
    }
    fn restore(&mut self, s: &FabricSnapshot) {
        self.inner.restore(s)
    }

    fn put_boxed(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        on_delivered: OnDone<W>,
    ) -> SimTime {
        let cb = traced_done(self.spans.done_cb, on_delivered);
        let _g = enter(self.spans.put, bytes);
        self.inner.put_boxed(sim, src, dst, bytes, cb)
    }

    fn get_boxed(
        &mut self,
        sim: &mut Sim<W>,
        requester: NodeId,
        target: NodeId,
        bytes: u64,
        on_delivered: OnDone<W>,
    ) -> SimTime {
        let cb = traced_done(self.spans.done_cb, on_delivered);
        let _g = enter(self.spans.get, bytes);
        self.inner.get_boxed(sim, requester, target, bytes, cb)
    }

    fn multicast_boxed(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dests: &[NodeId],
        bytes: u64,
        per_dest: Option<Rc<dyn Fn(&mut W, &mut Sim<W>, NodeId)>>,
        on_complete: OnDone<W>,
    ) -> SimTime {
        let dest_span = self.spans.dest_cb;
        let per_dest = per_dest.map(|f| {
            Rc::new(move |w: &mut W, sim: &mut Sim<W>, node: NodeId| {
                let _g = enter(dest_span, 0);
                f(w, sim, node)
            }) as Rc<dyn Fn(&mut W, &mut Sim<W>, NodeId)>
        });
        let cb = traced_done(self.spans.done_cb, on_complete);
        let _g = enter(self.spans.multicast, dests.len() as u64);
        self.inner
            .multicast_boxed(sim, src, dests, bytes, per_dest, cb)
    }

    fn conditional_boxed(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        span: usize,
        on_fire: OnDone<W>,
    ) -> SimTime {
        let cb = traced_done(self.spans.done_cb, on_fire);
        let _g = enter(self.spans.conditional, 0);
        self.inner.conditional_boxed(sim, src, span, cb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_a_nested_put() {
        begin_job(7, true);
        take_aggs();
        {
            // A delivery callback that issues a put partway through.
            let _cb = enter(Span::CoreDeliveryCb, 0);
            spin(Duration::from_millis(4));
            {
                let _put = enter(Span::QsnetPut, 64);
                spin(Duration::from_millis(6));
            }
            spin(Duration::from_millis(2));
        }
        begin_job(0, false);
        let aggs = take_aggs();
        let cb = aggs[&(7, Span::CoreDeliveryCb)];
        let put = aggs[&(7, Span::QsnetPut)];
        assert_eq!((cb.calls, put.calls, put.units), (1, 1, 64));
        assert!(put.total >= Duration::from_millis(6));
        assert_eq!(
            put.self_time, put.total,
            "a leaf span's self time is its duration"
        );
        assert_eq!(put.root, Duration::ZERO, "the put had a parent");
        assert_eq!(cb.root, cb.total, "the callback was a root span");
        assert_eq!(cb.self_time, cb.total - put.total);
        assert!(cb.self_time >= Duration::from_millis(6));
        assert!(cb.self_time < cb.total - Duration::from_millis(5));
    }

    #[test]
    fn disabled_recording_keeps_nothing_but_the_first_poll() {
        begin_job(1, false);
        take_aggs();
        arm_first_poll();
        assert!(first_poll().is_none());
        drop(enter_poll());
        let first = first_poll().expect("first poll noted");
        drop(enter_poll());
        assert_eq!(first_poll(), Some(first), "only the first poll counts");
        assert!(take_aggs().is_empty());
    }
}

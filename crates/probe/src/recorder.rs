//! The ring-buffer recorder and the [`Probe`] handle the layers emit
//! through.
//!
//! The probe is designed around two constraints:
//!
//! 1. **Zero overhead when off.** A disabled probe holds no allocation at
//!    all — every emit is a single `Option` test on a `None`.
//! 2. **Nothing is lost silently.** The recorder is a bounded ring: when
//!    full it overwrites the oldest event *and counts the overwrite*, so a
//!    truncated trace always says how much is missing.

use crate::event::{Event, EventKind};
use std::cell::RefCell;
use std::rc::Rc;

/// Recorder sizing/enable knobs.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Master switch. A probe built from a disabled config is a no-op.
    pub enabled: bool,
    /// Ring capacity in events. Oldest events are overwritten (and
    /// counted) once the ring is full.
    pub capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            enabled: true,
            capacity: 200_000,
        }
    }
}

impl RecorderConfig {
    /// A disabled recorder.
    pub fn disabled() -> Self {
        RecorderConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// An enabled recorder with the given ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        RecorderConfig {
            enabled: true,
            capacity: capacity.max(1),
        }
    }
}

/// Bounded ring buffer of [`Event`]s plus the ambient cycle/replay stamps.
///
/// The ring storage is [`Rc`]-shared so a [`Probe::snapshot`] is a
/// reference bump, not a copy of the event stream; the first record after
/// a snapshot lazily copies the ring back out ([`Rc::make_mut`]).
#[derive(Clone, Debug)]
pub struct Recorder {
    capacity: usize,
    buf: Rc<Vec<Event>>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    cycle: u64,
    replay: u64,
}

impl Recorder {
    /// Creates an empty recorder with the given ring capacity.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            capacity,
            buf: Rc::new(Vec::with_capacity(capacity.min(4096))),
            head: 0,
            dropped: 0,
            cycle: 0,
            replay: 0,
        }
    }

    /// Records one event, overwriting (and counting) the oldest if full.
    pub fn record(&mut self, ev: Event) {
        let buf = Rc::make_mut(&mut self.buf);
        if buf.len() < self.capacity {
            buf.push(ev);
        } else {
            buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in arrival order (oldest first).
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// How many events were overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sets the ambient simulated cycle stamped onto subsequent events.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Current ambient cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets the ambient replay index stamped onto subsequent events.
    pub fn set_replay(&mut self, replay: u64) {
        self.replay = replay;
    }

    /// Current ambient replay index.
    pub fn replay(&self) -> u64 {
        self.replay
    }
}

/// Cheap cloneable emitter handle shared by every layer.
///
/// All clones of one probe feed the same recorder, so events from the
/// core, the MMU, the caches and the OS interleave in arrival order. A
/// disabled probe holds nothing and does nothing.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Probe {
    /// Builds a probe from a config (`None` inside when disabled).
    pub fn new(cfg: RecorderConfig) -> Self {
        if cfg.enabled {
            Probe {
                inner: Some(Rc::new(RefCell::new(Recorder::new(cfg.capacity)))),
            }
        } else {
            Probe { inner: None }
        }
    }

    /// The no-op probe.
    pub fn disabled() -> Self {
        Probe { inner: None }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one event stamped with the ambient cycle and replay index.
    #[inline]
    pub fn emit(&self, ctx: Option<u32>, kind: EventKind) {
        if let Some(rec) = &self.inner {
            let mut rec = rec.borrow_mut();
            let (cycle, replay) = (rec.cycle(), rec.replay());
            rec.record(Event {
                cycle,
                ctx,
                replay,
                kind,
            });
        }
    }

    /// Emits one event at an explicit cycle (used by layers that know the
    /// precise cycle, e.g. the core's retire stage).
    #[inline]
    pub fn emit_at(&self, cycle: u64, ctx: Option<u32>, kind: EventKind) {
        if let Some(rec) = &self.inner {
            let mut rec = rec.borrow_mut();
            let replay = rec.replay();
            rec.record(Event {
                cycle,
                ctx,
                replay,
                kind,
            });
        }
    }

    /// Advances the ambient cycle stamp (called once per machine step).
    #[inline]
    pub fn set_cycle(&self, cycle: u64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().set_cycle(cycle);
        }
    }

    /// Sets the ambient replay index (called by the OS module each time a
    /// replay cycle completes).
    #[inline]
    pub fn set_replay(&self, replay: u64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().set_replay(replay);
        }
    }

    /// Snapshot of all recorded events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(rec) => rec.borrow().events(),
            None => Vec::new(),
        }
    }

    /// How many events the ring overwrote.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(rec) => rec.borrow().dropped(),
            None => 0,
        }
    }

    /// A copy of the whole recorder state — ring contents, drop counter and
    /// the ambient cycle/replay stamps. `None` for a disabled probe. Pair
    /// with [`Probe::restore`] to rewind the event stream to a checkpoint.
    pub fn snapshot(&self) -> Option<Recorder> {
        self.inner.as_ref().map(|rec| rec.borrow().clone())
    }

    /// Rewinds the shared recorder to a [`Probe::snapshot`]. Every clone of
    /// this probe observes the restored state (they share one ring). A
    /// `None` snapshot (disabled probe at capture time) is a no-op.
    pub fn restore(&self, snapshot: &Option<Recorder>) {
        if let (Some(rec), Some(snap)) = (&self.inner, snapshot) {
            *rec.borrow_mut() = snap.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(i: u64) -> EventKind {
        EventKind::Complete { seq: i }
    }

    #[test]
    fn disabled_probe_records_nothing_and_allocates_nothing() {
        let p = Probe::disabled();
        p.set_cycle(10);
        p.emit(Some(0), ev(1));
        assert!(!p.enabled());
        assert!(p.events().is_empty());
        assert_eq!(p.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let p = Probe::new(RecorderConfig::with_capacity(4));
        for i in 0..10 {
            p.set_cycle(i);
            p.emit(None, ev(i));
        }
        let evs = p.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(p.dropped(), 6);
        // Oldest-first order: the survivors are events 6..10.
        let seqs: Vec<u64> = evs
            .iter()
            .map(|e| match e.kind {
                EventKind::Complete { seq } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn clones_share_one_recorder() {
        let p = Probe::new(RecorderConfig::with_capacity(16));
        let q = p.clone();
        p.set_cycle(5);
        q.emit(Some(1), ev(0));
        p.emit(Some(2), ev(1));
        let evs = p.events();
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.cycle == 5));
    }

    #[test]
    fn emit_at_overrides_the_ambient_cycle_only() {
        let p = Probe::new(RecorderConfig::with_capacity(8));
        p.set_cycle(3);
        p.set_replay(2);
        let fault = EventKind::FaultRaised {
            vaddr: 0x1234,
            pc: 9,
        };
        p.emit_at(7, Some(1), fault);
        let evs = p.events();
        assert_eq!(evs.len(), 1);
        assert_eq!((evs[0].cycle, evs[0].ctx, evs[0].replay), (7, Some(1), 2));
        assert_eq!(evs[0].kind, fault);
    }

    #[test]
    fn replay_stamp_is_ambient() {
        let p = Probe::new(RecorderConfig::with_capacity(8));
        p.emit(None, ev(0));
        p.set_replay(3);
        p.emit(None, ev(1));
        let evs = p.events();
        assert_eq!(evs[0].replay, 0);
        assert_eq!(evs[1].replay, 3);
    }
}

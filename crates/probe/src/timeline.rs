//! Reconstruction of the paper's **Figure 3** attack timeline from a raw
//! event stream.
//!
//! Fig. 3 shows one replay cycle: the OS sets the trap (clears the handle
//! page's Present bit), the victim's access misses the TLB and starts a
//! long hardware page walk, younger instructions execute speculatively in
//! the walk's shadow, the walk ends in a page fault which retires,
//! squashes the window, re-enters the handler — and the cycle repeats as
//! replay *N*. [`reconstruct`] re-derives those phases from the cpu + mem
//! + os events the layers emit.

use crate::event::{Event, EventKind, SquashCause};
use std::fmt;

/// A phase of the Fig. 3 attack cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Attack setup: arming the recipe, clearing the Present bit.
    Setup,
    /// The hardware page walk of the faulting access.
    Walk,
    /// Speculative execution of younger instructions in the walk's shadow.
    SpeculativeWindow,
    /// The page fault reaching the head of the ROB.
    Fault,
    /// The pipeline squash at fault retirement.
    Squash,
    /// The replay: the handler returns with the Present bit still clear.
    Replay,
}

impl Phase {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Walk => "walk",
            Phase::SpeculativeWindow => "speculative-window",
            Phase::Fault => "fault",
            Phase::Squash => "squash",
            Phase::Replay => "replay",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reconstructed phase occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// First cycle of the span.
    pub start: u64,
    /// Last cycle of the span (== `start` for point events).
    pub end: u64,
    /// Replay index the span belongs to (0 = before the first replay).
    pub replay: u64,
    /// Squashed-instruction count for [`Phase::Squash`] spans, walk
    /// latency for [`Phase::Walk`], otherwise 0.
    pub weight: u64,
}

/// Rebuilds the Fig. 3 phase sequence from an event stream.
///
/// The returned spans are ordered as the attack proceeds: one `Setup`
/// span, then per replay cycle `Walk → SpeculativeWindow → Fault →
/// Squash → Replay`.
pub fn reconstruct(events: &[Event]) -> Vec<PhaseSpan> {
    let mut spans = Vec::new();
    if events.is_empty() {
        return spans;
    }

    // Setup: from the first event until the first fault raised on an armed
    // page (approximated by the first FaultRaised in the stream).
    let start = events[0].cycle;
    let first_fault = events.iter().find_map(|e| match e.kind {
        EventKind::FaultRaised { .. } => Some(e.cycle),
        _ => None,
    });
    spans.push(PhaseSpan {
        phase: Phase::Setup,
        start,
        end: first_fault.unwrap_or_else(|| events.last().unwrap().cycle),
        replay: 0,
        weight: 0,
    });

    // Per replay cycle. Walk events carry the issue-cycle stamp; the fault
    // materializes at retirement, later. A replay boundary is the
    // handler's return with the handle still armed.
    let mut walk_start: Option<(u64, u64)> = None; // (cycle, latency)
    let mut fault_cycle: Option<u64> = None;
    let mut squash_cycle: Option<u64> = None;
    for e in events {
        match e.kind {
            EventKind::WalkStart { .. } => {
                walk_start = Some((e.cycle, 0));
            }
            EventKind::WalkEnd { latency, .. } => {
                if let Some((c, _)) = walk_start {
                    walk_start = Some((c, latency));
                }
            }
            EventKind::FaultRaised { .. } => {
                let (ws, lat) = walk_start.take().unwrap_or((e.cycle, 0));
                spans.push(PhaseSpan {
                    phase: Phase::Walk,
                    start: ws,
                    end: e.cycle,
                    replay: e.replay,
                    weight: lat,
                });
                spans.push(PhaseSpan {
                    phase: Phase::SpeculativeWindow,
                    start: ws,
                    end: e.cycle,
                    replay: e.replay,
                    weight: 0,
                });
                spans.push(PhaseSpan {
                    phase: Phase::Fault,
                    start: e.cycle,
                    end: e.cycle,
                    replay: e.replay,
                    weight: 0,
                });
                fault_cycle = Some(e.cycle);
            }
            EventKind::Squash {
                cause: SquashCause::PageFault,
                discarded,
            } if fault_cycle.is_some() => {
                fault_cycle = None;
                spans.push(PhaseSpan {
                    phase: Phase::Squash,
                    start: e.cycle,
                    end: e.cycle,
                    replay: e.replay,
                    weight: discarded,
                });
                squash_cycle = Some(e.cycle);
            }
            EventKind::HandlerReturn { .. } => {
                if let Some(sq) = squash_cycle.take() {
                    spans.push(PhaseSpan {
                        phase: Phase::Replay,
                        start: sq,
                        end: e.cycle,
                        // The replay that has just completed; the ambient
                        // index advanced when the module observed it.
                        replay: e.replay,
                        weight: 0,
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn e(cycle: u64, replay: u64, kind: EventKind) -> Event {
        Event {
            cycle,
            ctx: Some(0),
            replay,
            kind,
        }
    }

    #[test]
    fn one_replay_cycle_reconstructs_in_fig3_order() {
        let events = vec![
            e(0, 0, EventKind::PresentCleared { vaddr: 0x1000 }),
            e(5, 0, EventKind::WalkStart { vaddr: 0x1000 }),
            e(
                5,
                0,
                EventKind::WalkEnd {
                    vaddr: 0x1000,
                    latency: 900,
                    faulted: true,
                },
            ),
            e(
                905,
                0,
                EventKind::FaultRaised {
                    vaddr: 0x1000,
                    pc: 4,
                },
            ),
            e(
                905,
                0,
                EventKind::Squash {
                    cause: SquashCause::PageFault,
                    discarded: 12,
                },
            ),
            e(
                1505,
                1,
                EventKind::HandlerReturn {
                    handler_cycles: 600,
                },
            ),
        ];
        let spans = reconstruct(&events);
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                Phase::Setup,
                Phase::Walk,
                Phase::SpeculativeWindow,
                Phase::Fault,
                Phase::Squash,
                Phase::Replay,
            ]
        );
        assert_eq!(spans[4].weight, 12);
        assert_eq!(spans[5].replay, 1);
        assert_eq!(spans[2].phase.to_string(), "speculative-window");
    }

    #[test]
    fn non_fault_squashes_do_not_emit_phases() {
        let events = vec![e(
            10,
            0,
            EventKind::Squash {
                cause: SquashCause::Mispredict,
                discarded: 3,
            },
        )];
        let spans = reconstruct(&events);
        assert_eq!(spans.len(), 1); // setup only
        assert_eq!(spans[0].phase, Phase::Setup);
    }
}

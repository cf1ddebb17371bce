//! `microscope-probe` — the cross-layer observability substrate.
//!
//! One logical victim run of a MicroScope attack is stitched together from
//! many replay cycles, each of which crosses every layer of the simulator:
//! the OS module clears a Present bit, the hardware walker misses its way
//! down the page table, the core speculates in the shadow of the walk, the
//! fault retires and squashes, and the monitor takes samples throughout.
//! This crate gives all of those layers a single structured event bus plus
//! a uniform metrics registry, so a whole attack can be inspected as one
//! stream:
//!
//! * [`Event`] / [`EventKind`] — the cross-layer event taxonomy, every
//!   record stamped with the simulated cycle and the current replay index.
//! * [`Probe`] — a cheap cloneable handle the layers emit through; a
//!   disabled probe is a `None` and costs one branch per call site.
//! * [`Recorder`] — bounded ring buffer behind the probe, with an explicit
//!   drop counter (nothing is ever lost silently).
//! * [`MetricSet`] — ordered name→value registry each layer's stats
//!   structs can be collected into, exported as JSON Lines.
//! * [`export`] — hand-rolled std-only exporter: Chrome trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`).
//! * [`timeline`] — reconstructs the paper's Fig. 3 attack timeline
//!   (setup → walk → speculative window → fault → squash → replay N) from
//!   a raw event stream.

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod timeline;

pub use event::{CacheTier, Event, EventKind, Layer, SquashCause};
pub use metrics::{MetricSet, MetricValue};
pub use recorder::{Probe, Recorder, RecorderConfig};
pub use timeline::{Phase, PhaseSpan};

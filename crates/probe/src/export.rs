//! The trace exporter: Chrome trace-event JSON (Perfetto-loadable),
//! assembled by hand — see [`crate::json`] — because the workspace takes
//! no serialization dependencies.

use crate::event::{Event, Layer};
use crate::timeline::{self, Phase};

/// Stable pid assigned to each layer in the Chrome trace (Perfetto shows
/// one "process" track per layer, plus one for the reconstructed Fig. 3
/// timeline).
fn layer_pid(layer: Layer) -> u32 {
    match layer {
        Layer::Cpu => 1,
        Layer::Mem => 2,
        Layer::Cache => 3,
        Layer::Os => 4,
        Layer::Session => 5,
    }
}

const TIMELINE_PID: u32 = 6;

/// Serializes events as one Chrome trace-event JSON document.
///
/// Layout: one "process" per layer (named via metadata records), events as
/// instant records (`"ph":"i"`) stamped at their simulated cycle (`ts` is
/// in cycles), plus the reconstructed Fig. 3 phase spans as duration
/// records (`"ph":"X"`) on a separate `timeline` process. The replay
/// index rides in every record's `args.replay`.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &str, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(s);
    };

    // Process-name metadata so Perfetto labels the tracks.
    for layer in Layer::ALL {
        push(
            &format!(
                "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                layer_pid(layer),
                layer.name()
            ),
            &mut out,
        );
    }
    push(
        &format!(
            "{{\"ph\":\"M\",\"pid\":{TIMELINE_PID},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"fig3-timeline\"}}}}"
        ),
        &mut out,
    );

    for e in events {
        let layer = e.kind.layer();
        let mut rec = String::with_capacity(96);
        rec.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
        rec.push_str(e.kind.name());
        rec.push_str("\",\"cat\":\"");
        rec.push_str(layer.name());
        rec.push_str("\",\"pid\":");
        rec.push_str(&layer_pid(layer).to_string());
        rec.push_str(",\"tid\":");
        rec.push_str(&e.ctx.unwrap_or(0).to_string());
        rec.push_str(",\"ts\":");
        rec.push_str(&e.cycle.to_string());
        rec.push_str(",\"args\":{\"replay\":");
        rec.push_str(&e.replay.to_string());
        let mut args = String::new();
        e.kind.write_args_json(&mut args);
        if !args.is_empty() {
            rec.push(',');
            rec.push_str(&args);
        }
        rec.push_str("}}");
        push(&rec, &mut out);
    }

    for span in timeline::reconstruct(events) {
        let dur = (span.end - span.start).max(1);
        let mut rec = String::with_capacity(96);
        rec.push_str("{\"ph\":\"X\",\"name\":\"");
        rec.push_str(span.phase.name());
        if span.phase == Phase::Replay {
            rec.push_str(&format!(" {}", span.replay));
        }
        rec.push_str("\",\"cat\":\"timeline\",\"pid\":");
        rec.push_str(&TIMELINE_PID.to_string());
        rec.push_str(",\"tid\":0,\"ts\":");
        rec.push_str(&span.start.to_string());
        rec.push_str(",\"dur\":");
        rec.push_str(&dur.to_string());
        rec.push_str(",\"args\":{\"replay\":");
        rec.push_str(&span.replay.to_string());
        rec.push_str(",\"weight\":");
        rec.push_str(&span.weight.to_string());
        rec.push_str("}}");
        push(&rec, &mut out);
    }

    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheTier, EventKind, SquashCause};
    use crate::json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 1,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::PresentCleared { vaddr: 0x1000 },
            },
            Event {
                cycle: 2,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::TlbLookup {
                    vpn: 1,
                    hit: false,
                    latency: 8,
                },
            },
            Event {
                cycle: 2,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::CacheAccess {
                    line: 64,
                    tier: CacheTier::Memory,
                    latency: 200,
                },
            },
            Event {
                cycle: 210,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::FaultRaised {
                    vaddr: 0x1000,
                    pc: 8,
                },
            },
            Event {
                cycle: 210,
                ctx: Some(0),
                replay: 0,
                kind: EventKind::Squash {
                    cause: SquashCause::PageFault,
                    discarded: 7,
                },
            },
            Event {
                cycle: 400,
                ctx: Some(0),
                replay: 1,
                kind: EventKind::HandlerReturn {
                    handler_cycles: 190,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_layers() {
        let doc = chrome_trace(&sample_events());
        json::validate(&doc).expect("chrome trace parses");
        for name in ["\"cpu\"", "\"mem\"", "\"cache\"", "\"os\""] {
            assert!(doc.contains(name), "missing layer {name}");
        }
        assert!(doc.contains("\"replay\":1"));
        assert!(doc.contains("\"ph\":\"X\""), "timeline spans present");
    }

    #[test]
    fn empty_stream_exports_cleanly() {
        let doc = chrome_trace(&[]);
        json::validate(&doc).expect("empty trace parses");
    }
}

//! # wmm-obs — deterministic observability primitives
//!
//! The telemetry layer for the weak-memory stack: provenance counters
//! for the executor's weakness channels and a bounded structured event
//! log for `repro trace`. The crate sits at the bottom of the graph
//! (no dependencies) so every layer — simulator, litmus runner,
//! campaign facade, server, CLI — can share the same types.
//!
//! Everything here is deterministic: [`ChannelCounts`] and
//! [`Provenance`] are pure counts taken at existing decision points in
//! the executor. They draw no randomness and are folded commutatively,
//! so they are bit-identical across worker counts and reruns at a fixed
//! seed — safe to assert on in tests and to grep in CI. Wall-clock
//! timing is not this crate's business: the engine reports exact
//! per-job samples, and `perfbench` measures everything else.
//!
//! Everything is allocation-light: counters are plain `u64` fields, and
//! the event log is a bounded ring buffer that drops (and counts) the
//! oldest entries.

use std::collections::VecDeque;
use std::fmt;

// ---------------------------------------------------------------------------
// Channel provenance counters (deterministic)
// ---------------------------------------------------------------------------

/// Per-channel counts of the weakness events that fired during one run
/// (or, after merging, across a whole campaign).
///
/// Each field is incremented at exactly one pre-existing decision point
/// in the executor — no new randomness is drawn — so the counts are as
/// deterministic as the run itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelCounts {
    /// Global-space in-flight-window bypasses (out-of-order completions).
    pub window_global: u64,
    /// Shared-space in-flight-window bypasses (scoped chips only).
    pub window_shared: u64,
    /// Global loads served a stale line by an incoherent per-SM L1.
    pub l1_stale: u64,
    /// Device fences that invalidated (refreshed) the issuing SM's L1.
    pub fence_inval: u64,
    /// Atomic read halves performed fresh at the shared L2, bypassing
    /// an incoherent L1 (a *strengthening* event — it is why lock words
    /// stay exact on Tesla-class chips).
    pub atomic_read_through: u64,
}

impl ChannelCounts {
    /// Stable field names, in JSON rendering order.
    pub const NAMES: [&'static str; 5] = [
        "window_global",
        "window_shared",
        "l1_stale",
        "fence_inval",
        "atomic_read_through",
    ];

    /// The counts as an array, in [`ChannelCounts::NAMES`] order.
    pub fn as_array(&self) -> [u64; 5] {
        [
            self.window_global,
            self.window_shared,
            self.l1_stale,
            self.fence_inval,
            self.atomic_read_through,
        ]
    }

    /// Total in-flight-window bypasses, both spaces together.
    pub fn window(&self) -> u64 {
        self.window_global + self.window_shared
    }

    /// Sum over every channel.
    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    /// True when no channel fired at all.
    pub fn is_zero(&self) -> bool {
        *self == ChannelCounts::default()
    }

    /// Accumulate another set of counts (commutative, so parallel
    /// fold order cannot change the result).
    pub fn add(&mut self, other: &ChannelCounts) {
        self.window_global += other.window_global;
        self.window_shared += other.window_shared;
        self.l1_stale += other.l1_stale;
        self.fence_inval += other.fence_inval;
        self.atomic_read_through += other.atomic_read_through;
    }

    /// Single-line JSON object, keys in [`ChannelCounts::NAMES`] order.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = Self::NAMES
            .iter()
            .zip(self.as_array())
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for ChannelCounts {
    /// Compact human form listing only the channels that fired, e.g.
    /// `41 window-global + 2 l1-stale`; `none` when all zero.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const LABELS: [&str; 5] = [
            "window-global",
            "window-shared",
            "l1-stale",
            "fence-inval",
            "atomic-rt",
        ];
        let parts: Vec<String> = LABELS
            .iter()
            .zip(self.as_array())
            .filter(|(_, v)| *v > 0)
            .map(|(l, v)| format!("{v} {l}"))
            .collect();
        if parts.is_empty() {
            write!(f, "none")
        } else {
            write!(f, "{}", parts.join(" + "))
        }
    }
}

/// Per-outcome weak-run attribution: how many weak runs each channel
/// *explains*.
///
/// Where [`ChannelCounts`] counts raw events (a single stressed run can
/// fire hundreds of window bypasses), `Provenance` attributes each
/// **weak run** to exactly one channel, chosen from the set of channels
/// that fired during that run by a fixed priority:
///
/// 1. [`l1_stale`](ChannelCounts::l1_stale) — a structural stale hit is
///    the rarest and most specific signal;
/// 2. [`window_shared`](ChannelCounts::window_shared) — scoped-channel
///    reordering;
/// 3. [`window_global`](ChannelCounts::window_global) — the common case
///    under global stress;
/// 4. [`atomic_read_through`](ChannelCounts::atomic_read_through), then
///    [`fence_inval`](ChannelCounts::fence_inval) — strengthening
///    events; a weak run explained only by these is suspicious but
///    still accounted;
/// 5. `unattributed` — no channel fired at all.
///
/// Attributing one run to one channel makes the invariant trivial and
/// testable: the buckets of an outcome's `Provenance` always sum to
/// that outcome's weak count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Weak runs attributed to a global-space window bypass.
    pub window_global: u64,
    /// Weak runs attributed to a shared-space window bypass.
    pub window_shared: u64,
    /// Weak runs attributed to an incoherent-L1 stale hit.
    pub l1_stale: u64,
    /// Weak runs in which only atomic read-throughs fired.
    pub atomic_read_through: u64,
    /// Weak runs in which only fence invalidations fired.
    pub fence_inval: u64,
    /// Weak runs during which no channel fired at all.
    pub unattributed: u64,
}

impl Provenance {
    /// Stable bucket names, in JSON rendering order.
    pub const NAMES: [&'static str; 6] = [
        "window_global",
        "window_shared",
        "l1_stale",
        "atomic_read_through",
        "fence_inval",
        "unattributed",
    ];

    /// The buckets as an array, in [`Provenance::NAMES`] order.
    pub fn as_array(&self) -> [u64; 6] {
        [
            self.window_global,
            self.window_shared,
            self.l1_stale,
            self.atomic_read_through,
            self.fence_inval,
            self.unattributed,
        ]
    }

    /// Attribute one weak run to the highest-priority channel that
    /// fired in `fired` (see the type docs for the priority order).
    pub fn attribute(&mut self, fired: &ChannelCounts) {
        if fired.l1_stale > 0 {
            self.l1_stale += 1;
        } else if fired.window_shared > 0 {
            self.window_shared += 1;
        } else if fired.window_global > 0 {
            self.window_global += 1;
        } else if fired.atomic_read_through > 0 {
            self.atomic_read_through += 1;
        } else if fired.fence_inval > 0 {
            self.fence_inval += 1;
        } else {
            self.unattributed += 1;
        }
    }

    /// Total attributed runs — always equals the weak count of the
    /// histogram entry this provenance belongs to.
    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    /// True when no run has been attributed.
    pub fn is_zero(&self) -> bool {
        *self == Provenance::default()
    }

    /// Accumulate another attribution (commutative).
    pub fn add(&mut self, other: &Provenance) {
        self.window_global += other.window_global;
        self.window_shared += other.window_shared;
        self.l1_stale += other.l1_stale;
        self.atomic_read_through += other.atomic_read_through;
        self.fence_inval += other.fence_inval;
        self.unattributed += other.unattributed;
    }

    /// Single-line JSON object, keys in [`Provenance::NAMES`] order.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = Self::NAMES
            .iter()
            .zip(self.as_array())
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for Provenance {
    /// Compact human form listing only the nonzero buckets, e.g.
    /// `39 window + 2 l1-stale`; `-` when empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const LABELS: [&str; 6] = [
            "window",
            "shared-window",
            "l1-stale",
            "atomic-rt",
            "fence-inval",
            "unattributed",
        ];
        let parts: Vec<String> = LABELS
            .iter()
            .zip(self.as_array())
            .filter(|(_, v)| *v > 0)
            .map(|(l, v)| format!("{v} {l}"))
            .collect();
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.join(" + "))
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded event log
// ---------------------------------------------------------------------------

/// A bounded ring buffer of structured events.
///
/// When full, pushing drops the **oldest** entry and counts the drop,
/// so a trace of a long campaign keeps the most recent window and
/// reports exactly how much it shed — the log can never grow without
/// bound.
#[derive(Debug, Clone)]
pub struct EventLog<T> {
    buf: VecDeque<T>,
    cap: usize,
    dropped: u64,
}

impl<T> EventLog<T> {
    /// A log holding at most `cap` events (`cap` of 0 keeps nothing
    /// and counts every push as dropped).
    pub fn new(cap: usize) -> Self {
        EventLog {
            buf: VecDeque::with_capacity(cap.min(1024)),
            cap,
            dropped: 0,
        }
    }

    /// Append an event, evicting (and counting) the oldest when full.
    pub fn push(&mut self, ev: T) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many events were evicted (or rejected by a zero capacity).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_counts_add_and_window_invariant() {
        let mut a = ChannelCounts {
            window_global: 3,
            window_shared: 1,
            ..Default::default()
        };
        let b = ChannelCounts {
            window_global: 2,
            l1_stale: 4,
            fence_inval: 1,
            atomic_read_through: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.window(), 6);
        assert_eq!(a.total(), 16);
        assert!(!a.is_zero());
        assert!(ChannelCounts::default().is_zero());
    }

    #[test]
    fn channel_counts_json_and_display() {
        let c = ChannelCounts {
            window_global: 39,
            l1_stale: 2,
            ..Default::default()
        };
        let j = c.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"window_global\": 39"));
        assert!(j.contains("\"l1_stale\": 2"));
        assert!(!j.contains('\n'));
        assert_eq!(c.to_string(), "39 window-global + 2 l1-stale");
        assert_eq!(ChannelCounts::default().to_string(), "none");
    }

    #[test]
    fn provenance_attribution_follows_the_priority_order() {
        let mut p = Provenance::default();
        // l1 wins over window.
        p.attribute(&ChannelCounts {
            window_global: 10,
            l1_stale: 1,
            ..Default::default()
        });
        // shared window wins over global window.
        p.attribute(&ChannelCounts {
            window_global: 10,
            window_shared: 1,
            ..Default::default()
        });
        // global window wins over the strengthening channels.
        p.attribute(&ChannelCounts {
            window_global: 1,
            atomic_read_through: 7,
            fence_inval: 3,
            ..Default::default()
        });
        // nothing fired.
        p.attribute(&ChannelCounts::default());
        assert_eq!(p.l1_stale, 1);
        assert_eq!(p.window_shared, 1);
        assert_eq!(p.window_global, 1);
        assert_eq!(p.unattributed, 1);
        assert_eq!(p.total(), 4);
    }

    #[test]
    fn provenance_json_and_display() {
        let mut p = Provenance::default();
        for _ in 0..39 {
            p.attribute(&ChannelCounts {
                window_global: 1,
                ..Default::default()
            });
        }
        for _ in 0..2 {
            p.attribute(&ChannelCounts {
                l1_stale: 1,
                ..Default::default()
            });
        }
        assert_eq!(p.to_string(), "39 window + 2 l1-stale");
        let j = p.to_json();
        assert!(j.contains("\"window_global\": 39"));
        assert!(j.contains("\"l1_stale\": 2"));
        assert!(j.contains("\"unattributed\": 0"));
        assert!(!j.contains('\n'));
        assert_eq!(Provenance::default().to_string(), "-");
    }

    #[test]
    fn event_log_bounds_and_counts_drops() {
        let mut log = EventLog::new(3);
        for i in 0..5 {
            log.push(i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        let mut zero = EventLog::new(0);
        zero.push(1);
        assert!(zero.is_empty());
        assert_eq!(zero.dropped(), 1);
    }
}

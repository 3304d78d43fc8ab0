//! A benchmark-side event sink that counts the engine's events by kind.

use register_relocation::runtime::{Event, EventKind, EventSink};

/// Event counters, one per [`EventKind`] variant, in declaration order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    by_kind: [u64; KINDS],
}

/// Number of [`EventKind`] variants.
pub const KINDS: usize = 17;

/// Counter index of each kind the per-layer metrics read.
pub mod kind {
    pub const SWITCH_TO: usize = 2;
    pub const FAULT: usize = 4;
    pub const ALLOC_SUCCESS: usize = 7;
    pub const ALLOC_FAILURE: usize = 8;
    pub const CONTEXT_LOAD: usize = 9;
    pub const CONTEXT_UNLOAD: usize = 10;
    pub const SPIN_STEP: usize = 11;
}

fn index(kind: &EventKind) -> usize {
    match kind {
        EventKind::RunStart { .. } => 0,
        EventKind::Charge { .. } => 1,
        EventKind::SwitchTo { .. } => kind::SWITCH_TO,
        EventKind::ThreadSpawn { .. } => 3,
        EventKind::Fault { .. } => kind::FAULT,
        EventKind::ThreadResume { .. } => 5,
        EventKind::ThreadRequeue { .. } => 6,
        EventKind::AllocSuccess { .. } => kind::ALLOC_SUCCESS,
        EventKind::AllocFailure { .. } => kind::ALLOC_FAILURE,
        EventKind::ContextLoad { .. } => kind::CONTEXT_LOAD,
        EventKind::ContextUnload { .. } => kind::CONTEXT_UNLOAD,
        EventKind::SpinStep { .. } => kind::SPIN_STEP,
        EventKind::IdleStart { .. } => 12,
        EventKind::IdleEnd => 13,
        EventKind::ThreadComplete { .. } => 14,
        EventKind::OsCall { .. } => 15,
        EventKind::RunEnd { .. } => 16,
    }
}

impl EventCounts {
    /// Every event counted.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    pub fn get(&self, kind: usize) -> u64 {
        self.by_kind[kind]
    }

    pub fn add(&mut self, other: &EventCounts) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
    }
}

impl EventSink for EventCounts {
    fn emit(&mut self, event: Event) {
        self.by_kind[index(&event.kind)] += 1;
    }
}

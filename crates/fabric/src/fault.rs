//! `PBBF_FAULT` — deterministic fault injection for worker processes.
//!
//! The supervisor's failure paths (crash, hang, corrupt output) are
//! hard to exercise organically, so workers honor an env-var fault
//! plan: `PBBF_FAULT=crash:1,hang:4,corrupt:7` makes the worker that
//! receives shard 1 exit mid-shard, shard 4's worker wedge until the
//! supervisor's deadline kills it, and shard 7's reply arrive with a
//! flipped value bit under a stale checksum. Each fault fires on the
//! shard's *first* delivery only — the retry then succeeds — unless the
//! shard number carries a `+` suffix (`crash:0+`), which makes the
//! fault fire on every attempt and drives the supervisor down its
//! attempt-exhaustion → in-process fallback path.
//!
//! Only the worker loop
//! ([`worker_loop_with`](crate::worker::worker_loop_with)) consults the
//! plan; the supervisor never does, so a sweep's *recovery* is what
//! gets tested, not a short-circuit. Determinism note: faults keyed on shard
//! id and attempt are reproducible by construction — no dice rolls.

/// What a planned fault does to the shard's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Exit the worker process before replying.
    Crash,
    /// Never reply; sleep until killed.
    Hang,
    /// Reply with a flipped value bit and a stale checksum.
    Corrupt,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fault {
    kind: FaultKind,
    /// The shard's wire id.
    shard: u32,
    every_attempt: bool,
}

/// A parsed `PBBF_FAULT` plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses the plan from `PBBF_FAULT` (empty/unset → no faults).
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(&std::env::var("PBBF_FAULT").unwrap_or_default())
    }

    /// Parses a comma-separated `kind:shard[+]` list. Unrecognized
    /// entries are ignored (a test knob, not a user interface).
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        let mut faults = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            let Some((kind, shard)) = entry.split_once(':') else {
                continue;
            };
            let kind = match kind {
                "crash" => FaultKind::Crash,
                "hang" => FaultKind::Hang,
                "corrupt" => FaultKind::Corrupt,
                _ => continue,
            };
            let (shard, every_attempt) = match shard.strip_suffix('+') {
                Some(s) => (s, true),
                None => (shard, false),
            };
            if let Ok(shard) = shard.parse() {
                faults.push(Fault {
                    kind,
                    shard,
                    every_attempt,
                });
            }
        }
        Self { faults }
    }

    /// The fault (if any) to inject for delivery `attempt` of `shard`.
    #[must_use]
    pub fn fault_for(&self, shard: u32, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.shard == shard && (f.every_attempt || attempt == 0))
            .map(|f| f.kind)
    }

    /// Whether the plan contains any faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let plan = FaultPlan::parse("crash:1, hang:4,corrupt:7,crash:0+");
        assert_eq!(plan.fault_for(1, 0), Some(FaultKind::Crash));
        assert_eq!(plan.fault_for(4, 0), Some(FaultKind::Hang));
        assert_eq!(plan.fault_for(7, 0), Some(FaultKind::Corrupt));
        assert_eq!(plan.fault_for(2, 0), None);

        // One-shot faults clear on retry; persistent ones don't.
        assert_eq!(plan.fault_for(1, 1), None);
        assert_eq!(plan.fault_for(0, 3), Some(FaultKind::Crash));
    }

    #[test]
    fn garbage_is_ignored() {
        assert!(FaultPlan::parse("").is_empty());
        assert!(FaultPlan::parse("explode:9,crash,corrupt:x,:3,hang:*").is_empty());
        assert_eq!(
            FaultPlan::parse("nope:1,hang:2").fault_for(2, 0),
            Some(FaultKind::Hang)
        );
    }
}

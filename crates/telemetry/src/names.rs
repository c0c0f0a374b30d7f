//! The catalog of every Prometheus metric this workspace emits: each
//! metric's name and `# HELP` text, declared once.
//!
//! An entry's constant is its name without `dx_`, upper-cased. A
//! registration site names it through this module
//! (`registry.counter(names::SEEDS_TOTAL.name, &[])`), never as a
//! string literal, and [`MetricsRegistry`](crate::MetricsRegistry)
//! renders a family's `# HELP` line from its entry here, so a metric
//! reads the same in every process that registers it. Families outside
//! the catalog (ad-hoc names in tests and benches) render without one.
//!
//! The catalog's rules are held by tests. This module's own test: names
//! are unique, `dx_`-prefixed snake_case, and HELP text is one plain
//! line. `tests/tests/workspace_rules.rs`, which reads [`ALL`]: no
//! `"dx_…"` literal in the non-test source of `crates/*/src` outside
//! this file; every entry registered somewhere and named in the
//! README; every `dx_…` token in a README, script or workflow declared
//! here (histogram `_count`/`_sum`/`_bucket` series resolve to their
//! base name).
//!
//! Names follow Prometheus conventions: `dx_` namespace prefix,
//! snake_case, `_total` for counters, `_seconds` for time histograms.
//! Label dimensions (`{phase=}`, `{worker=}`, `{tenant=}`, …) are chosen
//! at the registration site and are not part of the catalog key.

/// One catalogued metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// The Prometheus family name.
    pub name: &'static str,
    /// The `# HELP` text rendered for the family.
    pub help: &'static str,
}

/// The catalog entry named `name`, if there is one.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    ALL.iter().find(|m| m.name == name)
}

/// Declares each entry as a constant and lists them all in [`ALL`], so
/// an entry cannot be left out of the list.
macro_rules! catalog {
    ($($(#[$doc:meta])* $id:ident = $name:literal, $help:literal;)*) => {
        $($(#[$doc])* pub const $id: Metric = Metric { name: $name, help: $help };)*
        /// Every catalog entry, in declaration order.
        pub const ALL: &[Metric] = &[$($id),*];
    };
}

catalog! {
    // ---- engine / generator (dx-campaign) -------------------------------

    /// Counter.
    SEEDS_TOTAL = "dx_seeds_total", "Seed steps processed.";
    /// Counter.
    DIFFS_TOTAL = "dx_diffs_total", "Difference-inducing inputs found.";
    /// Counter, `{component=}`.
    NEW_UNITS_TOTAL = "dx_new_units_total", "Coverage units newly covered, per component.";
    /// Histogram.
    EPOCH_SECONDS = "dx_epoch_seconds", "Wall-clock time per campaign epoch.";
    /// Histogram.
    LOCK_WAIT_SECONDS = "dx_lock_wait_seconds", "Worker wait for the global coverage lock.";
    /// Histogram, `{phase=}`; on a coordinator, the fleet's phases as
    /// shipped in each `Results` frame.
    PHASE_SECONDS = "dx_phase_seconds",
        "Generator hot-path time per phase (forward, gradient, constraint, coverage).";
    /// Gauge.
    CORPUS_SIZE = "dx_corpus_size", "Corpus entries.";
    /// Gauge, `{stat=}`.
    CORPUS_ENERGY = "dx_corpus_energy", "Corpus energy distribution (min/mean/max).";

    // ---- coordinator / fleet (dx-dist) ----------------------------------

    /// Counter, per campaign.
    LEASES_TOTAL = "dx_leases_total", "Leases granted to workers.";
    /// Counter, fleet-wide.
    LEASE_EXPIRED_TOTAL = "dx_lease_expired_total", "Leases that timed out and were requeued.";
    /// Counter, fleet-wide.
    HEARTBEATS_TOTAL = "dx_heartbeats_total", "Heartbeat frames handled by the daemon.";
    /// Gauge, per campaign.
    REQUEUE_DEPTH = "dx_requeue_depth", "Seeds waiting in the requeue.";
    /// Gauge.
    WORKERS_CONNECTED = "dx_workers_connected", "Currently admitted worker connections.";
    /// Histogram, `{worker=}` (the worker's identity).
    LEASE_TURNAROUND_SECONDS = "dx_lease_turnaround_seconds",
        "Lease issue-to-results time, per worker.";
    /// Counter, `{worker=,verdict=}`: the trust plane — written from the
    /// fleet's books, whose trust records are also the fleet report's
    /// spot-ok/spot-bad columns.
    SPOT_CHECKS_TOTAL = "dx_spot_checks_total", "Spot-checked diff claims, by worker and verdict.";
    /// Gauge, `{worker=}`.
    WORKER_EVICTED = "dx_worker_evicted", "1 once the worker was evicted for fabrication.";
    /// Histogram, `{worker=}`.
    HEARTBEAT_RTT_SECONDS = "dx_heartbeat_rtt_seconds",
        "Worker-observed heartbeat round-trip time.";

    // ---- wire protocol (dx-dist) ----------------------------------------

    /// Counter, `{dir=}`.
    FRAMES_TOTAL = "dx_frames_total", "Wire frames sent/received by this process.";
    /// Counter, `{dir=}`.
    BYTES_TOTAL = "dx_bytes_total", "Wire bytes sent/received by this process.";

    // ---- multi-tenant service (dx-service) ------------------------------

    /// Gauge, per tenant.
    COVERAGE_MEAN = "dx_coverage_mean", "Mean global coverage across models.";
    /// Gauge.
    SERVICE_TENANTS = "dx_service_tenants", "Live (non-terminal) tenant campaigns.";
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn catalog_is_unique_prefixed_and_snake_case() {
        let mut seen = std::collections::BTreeSet::new();
        for m in ALL {
            let name = m.name;
            assert!(seen.insert(name), "duplicate catalog entry {name}");
            assert!(name.starts_with("dx_"), "{name} lacks the dx_ namespace");
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not snake_case"
            );
            // The text format escapes `\` and newlines in HELP; plain
            // one-line text needs no escaping.
            assert!(
                !m.help.is_empty() && !m.help.contains(['\\', '\n']),
                "{name}: HELP must be one plain line"
            );
        }
    }
}

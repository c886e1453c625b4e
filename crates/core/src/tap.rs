//! Observer hook on the realized arrival stream.
//!
//! Both serving entry points — the single-node [`crate::ServeSpec`] path and
//! the fleet-wide [`crate::ClusterSpec`] path, which share one driver loop —
//! can carry an [`ArrivalTap`] that sees every request exactly once, in
//! realized arrival order, with its final arrival stamp. This is the recording
//! side of the trace subsystem: the `moe-trace` crate's `TraceRecorder`
//! implements the trait and turns any run into a serialized trace that can
//! be replayed bit-identically through `with_queue`.

use moe_workload::Request;
use std::fmt;

/// Observes the realized arrival stream of one serving run.
///
/// Called once per synthesized (or replayed) request at its ingest point —
/// fleet dispatch, for one replica or many — *before* admission control
/// and feasibility screening, so the stream is the offered load, not the
/// served subset. Taps are shared (`Arc`) across the run and may be consulted
/// from the dispatch hot path; implementations should be cheap and use
/// interior mutability.
pub trait ArrivalTap: fmt::Debug + Send + Sync {
    /// Records one arrival. `request.arrival` is final when this is called.
    fn record(&self, request: &Request);
}

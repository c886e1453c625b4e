//! Replaying: feed a recorded [`Trace`] back through the serving stack.
//!
//! Replay installs the trace as an explicit pre-stamped queue
//! ([`Trace::replay_into_cluster`] for a fleet; a single-node `ServeSpec`
//! takes `spec.with_queue(trace.queue())`), which turns off workload
//! synthesis and arrival stamping: the run consumes exactly the recorded
//! stream, so two replays of the same trace through the same spec produce
//! bit-identical reports. To reproduce the *originating* run's report
//! exactly, keep the non-queue axes (system, policy/replicas, mode, router, generation-length
//! axis) the same as the run that recorded the trace — the generation-length
//! axis still sizes policies even though the queue carries its own lengths.

use crate::format::Trace;
use moe_lightning::ClusterSpec;

impl Trace {
    /// Installs this trace as `spec`'s request queue (sets the request count
    /// to the trace length).
    pub fn replay_into_cluster(&self, spec: ClusterSpec) -> ClusterSpec {
        spec.with_queue(self.queue())
    }
}

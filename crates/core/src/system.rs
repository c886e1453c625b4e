//! The inference systems compared in the paper's evaluation (§5.1).

use moe_schedule::ScheduleKind;
use std::fmt;

/// An end-to-end inference system: a policy generator plus a pipeline schedule plus
/// a request-padding behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// MoE-Lightning with all optimizations (CGOPipe, HRM policy, variable-length
    /// batching).
    MoeLightning,
    /// MoE-Lightning with requests padded to the maximum prompt length
    /// (apples-to-apples comparison against FlexGen).
    MoeLightningPadded,
    /// FlexGen: GPU attention with KV prefetch, padding, large batches.
    FlexGen,
    /// FlexGen(c): FlexGen with CPU attention enabled.
    FlexGenCpuAttention,
    /// DeepSpeed ZeRO-Inference: layer streaming with a single large micro-batch.
    DeepSpeedZero,
}

impl SystemKind {
    /// All systems in the order used by Fig. 7.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::FlexGen,
            SystemKind::FlexGenCpuAttention,
            SystemKind::DeepSpeedZero,
            SystemKind::MoeLightningPadded,
            SystemKind::MoeLightning,
        ]
    }

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::MoeLightning => "MoE-Lightning",
            SystemKind::MoeLightningPadded => "MoE-Lightning(p)",
            SystemKind::FlexGen => "FlexGen",
            SystemKind::FlexGenCpuAttention => "FlexGen(c)",
            SystemKind::DeepSpeedZero => "DeepSpeed-Zero",
        }
    }

    /// The decode-stage schedule the system uses.
    pub fn schedule(&self) -> ScheduleKind {
        match self {
            SystemKind::MoeLightning | SystemKind::MoeLightningPadded => ScheduleKind::CgoPipe,
            SystemKind::FlexGen => ScheduleKind::FlexGenGpuAttention,
            SystemKind::FlexGenCpuAttention => ScheduleKind::FlexGenCpuAttention,
            SystemKind::DeepSpeedZero => ScheduleKind::LayerStreaming,
        }
    }

    /// Whether the system pads every request to the maximum prompt length of the
    /// batch.
    pub fn pads_requests(&self) -> bool {
        matches!(
            self,
            SystemKind::MoeLightningPadded
                | SystemKind::FlexGen
                | SystemKind::FlexGenCpuAttention
                | SystemKind::DeepSpeedZero
        )
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_match_system_design() {
        assert_eq!(SystemKind::MoeLightning.schedule(), ScheduleKind::CgoPipe);
        assert_eq!(
            SystemKind::FlexGen.schedule(),
            ScheduleKind::FlexGenGpuAttention
        );
        assert_eq!(
            SystemKind::FlexGenCpuAttention.schedule(),
            ScheduleKind::FlexGenCpuAttention
        );
        assert_eq!(
            SystemKind::DeepSpeedZero.schedule(),
            ScheduleKind::LayerStreaming
        );
    }

    #[test]
    fn padding_flags_and_names() {
        assert!(!SystemKind::MoeLightning.pads_requests());
        assert!(SystemKind::MoeLightningPadded.pads_requests());
        assert!(SystemKind::FlexGen.pads_requests());
        assert_eq!(SystemKind::all().len(), 5);
        assert_eq!(SystemKind::FlexGenCpuAttention.to_string(), "FlexGen(c)");
    }
}

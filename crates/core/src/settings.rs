//! The paper's evaluation settings (Tab. 2): model × hardware combinations.

use moe_hardware::NodeSpec;
use moe_model::MoeModelConfig;
use std::fmt;

/// One row of Tab. 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalSetting {
    /// Mixtral 8x7B on 1×T4 (16 GB), 24-core Xeon with 192 GB.
    S1,
    /// Mixtral 8x7B on 1×L4 (24 GB), 24-core Xeon with 192 GB.
    S2,
    /// Mixtral 8x22B on 2×T4 (32 GB), 32-core Xeon with 416 GB.
    S6,
    /// Mixtral 8x22B on 4×T4 (64 GB), 32-core Xeon with 416 GB.
    S7,
    /// DBRX on 2×T4 (32 GB), 32-core Xeon with 416 GB.
    S8,
    /// DBRX on 4×T4 (64 GB), 32-core Xeon with 416 GB.
    S9,
}

impl EvalSetting {
    /// All settings in paper order.
    pub fn all() -> [EvalSetting; 6] {
        [
            EvalSetting::S1,
            EvalSetting::S2,
            EvalSetting::S6,
            EvalSetting::S7,
            EvalSetting::S8,
            EvalSetting::S9,
        ]
    }

    /// The model evaluated under this setting.
    pub fn model(&self) -> MoeModelConfig {
        match self {
            EvalSetting::S1 | EvalSetting::S2 => MoeModelConfig::mixtral_8x7b(),
            EvalSetting::S6 | EvalSetting::S7 => MoeModelConfig::mixtral_8x22b(),
            EvalSetting::S8 | EvalSetting::S9 => MoeModelConfig::dbrx(),
        }
    }

    /// The hardware node of this setting.
    pub fn node(&self) -> NodeSpec {
        match self {
            EvalSetting::S1 => NodeSpec::t4_single(),
            EvalSetting::S2 => NodeSpec::l4_single(),
            EvalSetting::S6 | EvalSetting::S8 => NodeSpec::t4_multi(2),
            EvalSetting::S7 | EvalSetting::S9 => NodeSpec::t4_multi(4),
        }
    }
}

impl fmt::Display for EvalSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvalSetting::S1 => "S1",
            EvalSetting::S2 => "S2",
            EvalSetting::S6 => "S6",
            EvalSetting::S7 => "S7",
            EvalSetting::S8 => "S8",
            EvalSetting::S9 => "S9",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moe_hardware::ByteSize;

    #[test]
    fn settings_match_table_2() {
        assert_eq!(
            EvalSetting::S1.node().total_gpu_memory(),
            ByteSize::from_gib(16.0)
        );
        assert_eq!(
            EvalSetting::S2.node().total_gpu_memory(),
            ByteSize::from_gib(24.0)
        );
        assert_eq!(
            EvalSetting::S6.node().total_gpu_memory(),
            ByteSize::from_gib(32.0)
        );
        assert_eq!(
            EvalSetting::S7.node().total_gpu_memory(),
            ByteSize::from_gib(64.0)
        );
        assert_eq!(EvalSetting::S8.model().name, "DBRX");
        assert_eq!(EvalSetting::S6.model().name, "Mixtral-8x22B");
        assert_eq!(EvalSetting::S1.model().name, "Mixtral-8x7B");
        assert_eq!(EvalSetting::all().len(), 6);
    }

    #[test]
    fn every_setting_is_memory_constrained() {
        // In all settings the model does not fit the GPUs — the regime the paper targets.
        for setting in EvalSetting::all() {
            assert!(
                setting.model().total_weight_bytes() > setting.node().total_gpu_memory(),
                "{setting} should be GPU-memory constrained"
            );
        }
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(EvalSetting::S7.to_string(), "S7");
    }
}

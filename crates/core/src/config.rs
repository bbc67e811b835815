//! NoFTL storage manager configuration.

/// Configuration of the NoFTL storage manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoFtlConfig {
    /// A die starts collecting — one GC quantum in front of each page it
    /// allocates — when its free-block count drops to this value.
    pub gc_low_watermark: u32,
    /// A collecting die stops once it has this many free blocks again.
    pub gc_high_watermark: u32,
}

impl NoFtlConfig {
    /// Defaults mirroring the paper's prototype (victim selection is
    /// always greedy and wear leveling always dynamic; neither is a
    /// setting).
    pub fn paper_defaults() -> Self {
        NoFtlConfig { gc_low_watermark: 2, gc_high_watermark: 4 }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.gc_low_watermark == 0 {
            return Err("gc_low_watermark must be at least 1".into());
        }
        if self.gc_high_watermark < self.gc_low_watermark {
            return Err("gc_high_watermark must be >= gc_low_watermark".into());
        }
        Ok(())
    }
}

impl Default for NoFtlConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(NoFtlConfig::default().validate().is_ok());
        assert!(NoFtlConfig::paper_defaults().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = NoFtlConfig { gc_low_watermark: 0, ..NoFtlConfig::default() };
        assert!(c.validate().is_err());
        let c = NoFtlConfig { gc_high_watermark: 1, gc_low_watermark: 2 };
        assert!(c.validate().is_err());
    }
}

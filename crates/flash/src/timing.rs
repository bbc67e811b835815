//! NAND operation latency model.
//!
//! Latencies follow published datasheet values for enterprise MLC NAND of
//! the paper's era (c. 2015), the same class of memory used by the NoFTL
//! prototype.  All values are configurable; the defaults only need to
//! preserve the *ratios* the evaluation depends on (program ≫ read,
//! erase ≫ program, copyback cheaper than read+transfer+program).

use crate::time::Duration;

/// Latency parameters of the simulated NAND device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Array read time (tR): cell array -> page register, in microseconds.
    pub read_page_us: f64,
    /// Page program time (tPROG): page register -> cell array, in microseconds.
    pub program_page_us: f64,
    /// Block erase time (tBERS), in microseconds.
    pub erase_block_us: f64,
    /// Additional controller/command overhead per operation, in microseconds.
    pub cmd_overhead_us: f64,
    /// Channel transfer time per KiB of data, in microseconds
    /// (e.g. 2.5 us/KiB ≈ 400 MB/s per channel).
    pub xfer_us_per_kib: f64,
    /// Transfer time for an OOB metadata read, in microseconds.
    pub oob_xfer_us: f64,
}

impl TimingModel {
    /// Default enterprise-MLC-class timings (c. 2015).
    pub fn mlc_2015() -> Self {
        TimingModel {
            read_page_us: 70.0,
            program_page_us: 700.0,
            erase_block_us: 3_000.0,
            cmd_overhead_us: 5.0,
            xfer_us_per_kib: 2.5,
            oob_xfer_us: 1.0,
        }
    }

    /// Zero-latency model for functional tests that do not care about time.
    pub fn instant() -> Self {
        TimingModel {
            read_page_us: 0.0,
            program_page_us: 0.0,
            erase_block_us: 0.0,
            cmd_overhead_us: 0.0,
            xfer_us_per_kib: 0.0,
            oob_xfer_us: 0.0,
        }
    }

    /// Duration the die is busy for an array read of one page.
    pub fn read_array_time(&self) -> Duration {
        Duration::from_us_f64(self.read_page_us + self.cmd_overhead_us)
    }

    /// Duration the die is busy programming one page.
    pub fn program_array_time(&self) -> Duration {
        Duration::from_us_f64(self.program_page_us + self.cmd_overhead_us)
    }

    /// Duration the die is busy erasing one block.
    pub fn erase_time(&self) -> Duration {
        Duration::from_us_f64(self.erase_block_us + self.cmd_overhead_us)
    }

    /// Duration the die is busy for a copyback (internal read + program,
    /// no channel transfer).
    pub fn copyback_time(&self) -> Duration {
        Duration::from_us_f64(self.read_page_us + self.program_page_us + self.cmd_overhead_us)
    }

    /// Channel occupation time to move `bytes` of data.
    pub fn transfer_time(&self, bytes: u32) -> Duration {
        Duration::from_us_f64(self.xfer_us_per_kib * bytes as f64 / 1024.0)
    }

    /// Channel occupation time for an OOB metadata transfer.
    pub fn oob_transfer_time(&self) -> Duration {
        Duration::from_us_f64(self.oob_xfer_us)
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::mlc_2015()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratios_are_sane() {
        let t = TimingModel::default();
        // program is substantially slower than read, erase slower still.
        assert!(t.program_array_time() > t.read_array_time());
        assert!(t.erase_time() > t.program_array_time());
        // copyback avoids the channel entirely but still pays array times.
        assert!(t.copyback_time() > t.program_array_time());
    }

    #[test]
    fn transfer_scales_with_size() {
        let t = TimingModel::default();
        let one_kib = t.transfer_time(1024);
        let four_kib = t.transfer_time(4096);
        assert_eq!(four_kib.as_nanos(), one_kib.as_nanos() * 4);
        assert!(t.oob_transfer_time() < one_kib);
    }

    #[test]
    fn instant_model_is_zero() {
        let t = TimingModel::instant();
        assert_eq!(t.read_array_time(), Duration::ZERO);
        assert_eq!(t.program_array_time(), Duration::ZERO);
        assert_eq!(t.erase_time(), Duration::ZERO);
        assert_eq!(t.transfer_time(4096), Duration::ZERO);
    }
}

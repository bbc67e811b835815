//! The clean fixture: idiomatic device code that follows every rule,
//! including one *justified* escape hatch.  `self_check()` asserts it
//! produces zero findings and exactly one suppression.

impl Device {
    fn timings(&self, die: DieId, ch: u32) -> Result<(u64, u64), FlashError> {
        let state = self.lock_device();
        Ok((state.dies[die.0 as usize].timeline.end(), state.channels[ch as usize].end()))
    }

    fn first_die_load(&self) -> u64 {
        // analyzer:allow(panic_freedom) geometry guarantees at least one die per device
        self.die_loads().first().copied().expect("non-empty")
    }
}

//! The clean fixture: idiomatic device code that follows every rule,
//! including one *justified* escape hatch.  `self_check()` asserts it
//! produces zero findings and exactly one suppression.

impl Device {
    fn timings(&self, die: DieId, ch: u32) -> Result<(u64, u64), FlashError> {
        let d = self.die_shard(die);
        let chan = self.channel_shard(ch);
        Ok((d.timeline.end(), chan.end()))
    }

    fn first_die_load(&self) -> u64 {
        // analyzer:allow(panic_freedom) geometry guarantees at least one die per device
        self.die_loads().first().copied().expect("non-empty")
    }
}

//! Seeded violation: channel shard acquired before die shard, against
//! the documented Manager < Mirror < MirrorRange < Arbiter < Die <
//! Channel order.  `self_check()` asserts the `lock_order` rule catches
//! this.

impl Device {
    fn mixed_up(&self, die: DieId, ch: u32) -> u64 {
        let chan = self.channel_shard(ch);
        let d = self.die_shard(die); // out of order: Channel(4) held, Die(3) requested
        chan.timeline.end().max(d.timeline.end())
    }
}

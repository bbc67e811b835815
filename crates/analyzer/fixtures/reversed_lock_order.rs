//! Seeded violation: a device locked before its mirror, against the
//! documented Manager < Mirror < Device order.  `self_check()` asserts
//! the `lock_order` rule catches this.

impl Device {
    fn mixed_up(&self, mirror: &Mirror) -> u64 {
        let d = self.lock_device();
        let m = mirror.mirror_shard(); // out of order: Device held, Mirror requested
        d.epoch.max(m.epoch)
    }
}

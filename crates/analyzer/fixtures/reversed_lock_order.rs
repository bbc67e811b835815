//! Seeded violations: a device locked before its mirror, and the
//! manager locked before an engine, against the documented
//! Engine < Manager < Mirror < Device order.  `self_check()` asserts the
//! `lock_order` rule catches this.

impl Device {
    fn mixed_up(&self, mirror: &Mirror) -> u64 {
        let d = self.lock_device();
        let m = mirror.mirror_shard(); // out of order: Device held, Mirror requested
        d.epoch.max(m.epoch)
    }

    fn engine_last(&self, db: &Database) -> u64 {
        let m = self.lock_inner();
        let e = db.lock_engine(); // out of order: Manager held, Engine requested
        m.epoch.max(e.commits)
    }
}

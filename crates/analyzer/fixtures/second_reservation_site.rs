//! Seeded violations for the `command_path` rule's single-reservation
//! invariant: device code outside `NandDevice::run`'s `phases` claiming
//! die and channel time — once through `sched::schedule`, once by
//! reserving on the die's timeline directly.  `self_check()` asserts the
//! rule catches this.

impl NandDevice {
    fn read_fast_path(&self, addr: PageAddr, at: SimTime) -> SimTime {
        let mut state = self.lock_device();
        let shape = Shape::of(OpKind::Read, &self.timing, &self.geometry);
        // A second command path beside `phases`.
        sched::schedule(&mut state.dies[addr.die.0 as usize], None, &shape, at).complete
    }

    fn settle(&self, die: DieId, at: SimTime) -> SimTime {
        let mut state = self.lock_device();
        // Claims die time behind the scheduler's back.
        state.dies[die.0 as usize].timeline.reserve(at, self.timing.read_array_time()).end
    }
}

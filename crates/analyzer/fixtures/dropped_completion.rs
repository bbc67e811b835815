//! Seeded violations for the `queue_discipline` rule: a Completion
//! result dropped on the floor, and a timed device call reachable from a
//! poll path.  `self_check()` asserts both shapes are caught.

impl CommandQueue {
    fn fire_and_forget(&self, handle: IoHandle) {
        self.wait(handle); // Completion (and its error arm) silently discarded
    }

    fn poll_and_patch(&self, addr: PageAddr, at: SimTime) -> bool {
        // A NAND read on the poll path, outside `submit_tagged`.
        self.device.execute(FlashCommand::Read { addr }, at, IoTag::default()).is_ok()
    }
}

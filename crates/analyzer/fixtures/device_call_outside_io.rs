//! Seeded violation for the `queue_discipline` rule's single-request-path
//! invariant: storage-manager code outside `crates/core/src/io.rs`
//! touching the device's timed operations directly and submitting to the
//! queue itself.  `self_check()` asserts the rule catches this.

impl Space<'_> {
    fn collect_inline(&mut self, src: PageAddr, dst: PageAddr, at: SimTime) -> bool {
        // Bypasses the queue the arbiter polices.
        if self.env.device.copyback(src, dst, at).is_err() {
            return false;
        }
        // A second submit site beside `Env::exec`.
        let erase = FlashCommand::Erase { block: src.block() };
        let handle = self.env.queue.submit_tagged(erase, at, IoTag::default());
        self.env.queue.wait(handle).is_ok()
    }
}

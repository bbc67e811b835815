//! Seeded violation for the `command_path` rule's single-request-path
//! invariant: storage-manager code outside `crates/core/src/io.rs`
//! touching the device's timed operations directly, by verb and by
//! `execute`.  `self_check()` asserts the rule catches this.

impl Space<'_> {
    fn collect_inline(&mut self, src: PageAddr, dst: PageAddr, at: SimTime) -> bool {
        // Bypasses `Env::exec` with a verb.
        if self.env.device.copyback(src, dst, at).is_err() {
            return false;
        }
        // A second `execute` site beside `Env::exec`.
        let erase = FlashCommand::Erase { block: src.block() };
        self.env.device.execute(erase, at, IoTag::default()).is_ok()
    }
}

//! NoFTL storage manager configuration.

/// Configuration of the NoFTL storage manager.  It has no settings: the
/// paper's prototype collects greedily between fixed free-block
/// watermarks and levels wear dynamically (see `gc.rs`), and nothing
/// varies them.  The type stays for the constructors that take one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoFtlConfig {}

impl NoFtlConfig {
    /// The configuration of the paper's prototype.
    pub fn paper_defaults() -> Self {
        NoFtlConfig {}
    }
}

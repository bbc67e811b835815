//! Per-child health state machine.
//!
//! Each child of a mirror is in exactly one of three states:
//!
//! ```text
//!            power loss
//!   Online ──────────────▶ Faulted
//!      ▲                      │ start_rebuild (power back)
//!      │ rebuild drains       ▼
//!      └────────────────── Rebuilding ──▶ Faulted (power lost again)
//! ```
//!
//! The transitions are validated centrally by
//! [`ChildHealth::check_transition`] so an illegal hop (e.g. `Faulted →
//! Online` without a rebuild) is a [`FlashError::MirrorConfig`] instead of
//! silent state corruption.  No health is persisted: after a reboot the
//! mount's verify scan sets every child's health afresh from what the
//! children hold, so a crash mid-rebuild resumes from "stale child with
//! the segments the scan found different", never from "child that
//! pretends its interrupted copies landed".

use flash_sim::FlashError;

/// Health of one mirror child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildHealth {
    /// In sync: receives every write, may serve any read.
    Online,
    /// Without power or known stale: writes are recorded in its dirty
    /// segment map, reads never touch it.
    Faulted,
    /// A rebuild is draining its dirty segments: receives foreground
    /// writes to clean segments and may serve reads from them.
    Rebuilding,
}

impl ChildHealth {
    /// Validate the transition `self → to`, returning it on success.
    pub fn check_transition(self, to: ChildHealth) -> Result<ChildHealth, FlashError> {
        let ok = matches!(
            (self, to),
            (ChildHealth::Online, ChildHealth::Faulted)
                | (ChildHealth::Faulted, ChildHealth::Rebuilding)
                | (ChildHealth::Rebuilding, ChildHealth::Online)
                | (ChildHealth::Rebuilding, ChildHealth::Faulted)
        );
        if ok {
            Ok(to)
        } else {
            Err(FlashError::MirrorConfig {
                message: format!("illegal health transition {self:?} -> {to:?}"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_transitions() {
        use ChildHealth::*;
        assert_eq!(Online.check_transition(Faulted).unwrap(), Faulted);
        assert_eq!(Faulted.check_transition(Rebuilding).unwrap(), Rebuilding);
        assert_eq!(Rebuilding.check_transition(Online).unwrap(), Online);
        assert_eq!(Rebuilding.check_transition(Faulted).unwrap(), Faulted);
    }

    #[test]
    fn illegal_transitions_are_config_errors() {
        use ChildHealth::*;
        for (from, to) in [
            (Faulted, Online),
            (Online, Rebuilding),
            (Online, Online),
            (Faulted, Faulted),
            (Rebuilding, Rebuilding),
        ] {
            let err = from.check_transition(to).unwrap_err();
            assert!(matches!(err, FlashError::MirrorConfig { .. }), "{from:?}->{to:?}");
        }
    }
}

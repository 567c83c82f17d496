//! The correctness gate: every final framebuffer the untraced clients
//! reconstructed must equal, byte for byte, the traced replay's
//! server-side framebuffer for the same pool entry.

use std::collections::BTreeMap;

use atk_graphics::Framebuffer;

/// Result of one gate pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Framebuffers compared.
    pub compared: usize,
    /// Of those, how many differed (or had no reference).
    pub mismatches: u64,
}

/// True when two framebuffers have the same size and pixel bytes.
pub fn same_pixels(a: &Framebuffer, b: &Framebuffer) -> bool {
    a.width() == b.width() && a.height() == b.height() && a.pixels() == b.pixels()
}

/// Compares each kept final framebuffer with the reference of its pool
/// entry; an entry without a reference counts as a mismatch.
pub fn check(finals: &BTreeMap<usize, Framebuffer>, refs: &[Framebuffer]) -> Verdict {
    let mismatches = finals
        .iter()
        .filter(|(entry, fb)| !refs.get(**entry).is_some_and(|r| same_pixels(r, fb)))
        .count() as u64;
    Verdict {
        compared: finals.len(),
        mismatches,
    }
}

//! The working field frame.
//!
//! While an instruction executes, its field values live in a [`Frame`] — the
//! analog of the paper's local variables in the low-informational-detail
//! interface function (Figure 4). Only *visible* fields are ever copied out
//! of the frame into the published [`DynInst`](crate::DynInst) record; hidden
//! fields never leave it.

use crate::field::{FieldId, FieldSet, MAX_FIELDS};

/// Field values for the instruction currently being executed.
///
/// All slots are `u64`; 32-bit ISAs use the low half. A validity mask tracks
/// which fields have been written so publication can skip untouched slots
/// and debugging interfaces can distinguish "zero" from "never computed".
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    vals: [u64; MAX_FIELDS],
    valid: FieldSet,
}

impl Default for Frame {
    fn default() -> Self {
        Self::new()
    }
}

impl Frame {
    /// Creates an empty frame.
    #[inline]
    pub fn new() -> Frame {
        Frame { vals: [0; MAX_FIELDS], valid: FieldSet::EMPTY }
    }

    /// Clears all validity bits (values are left in place but unreadable).
    #[inline]
    pub fn clear(&mut self) {
        self.valid = FieldSet::EMPTY;
    }

    /// Writes `field`.
    #[inline]
    pub fn set(&mut self, field: FieldId, val: u64) {
        self.vals[field.index()] = val;
        self.valid = self.valid.with(field);
    }

    /// Reads `field`, or 0 if it was never written.
    #[inline]
    pub fn get(&self, field: FieldId) -> u64 {
        if self.valid.contains(field) {
            self.vals[field.index()]
        } else {
            0
        }
    }

    /// Reads `field` only if it has been written.
    #[inline]
    pub fn try_get(&self, field: FieldId) -> Option<u64> {
        self.valid.contains(field).then(|| self.vals[field.index()])
    }

    /// Whether `field` has been written.
    #[inline]
    pub fn has(&self, field: FieldId) -> bool {
        self.valid.contains(field)
    }

    /// The set of fields written so far.
    #[inline]
    pub fn valid(&self) -> FieldSet {
        self.valid
    }

    /// Raw slot access for publication loops.
    #[inline]
    pub fn raw(&self, index: usize) -> u64 {
        self.vals[index]
    }

    /// Bulk-loads `(field, value)` pairs, marking each valid.
    pub fn load<I: IntoIterator<Item = (FieldId, u64)>>(&mut self, iter: I) {
        for (f, v) in iter {
            self.set(f, v);
        }
    }

    /// Writes `field`'s value slot *without* updating validity. A batch of
    /// staged writes becomes visible with one [`Frame::mark_valid`] — the
    /// two-phase form of repeated [`Frame::set`] calls, for hot loops whose
    /// field set is known ahead of time.
    #[inline]
    pub fn stage(&mut self, field: FieldId, val: u64) {
        self.vals[field.index()] = val;
    }

    /// Marks every field in `mask` valid in one store. Pairs with
    /// [`Frame::stage`]; the mask must cover exactly the staged fields.
    #[inline]
    pub fn mark_valid(&mut self, mask: FieldSet) {
        self.valid = self.valid.union(mask);
    }

    /// Replays a precomputed decode capture: writes `vals` to the fields of
    /// `valid` in increasing id order and *replaces* the whole validity mask
    /// with `valid` in one store — the bulk equivalent of `clear()` followed
    /// by one `set` per field.
    #[inline]
    pub fn replay(&mut self, vals: &[u64], valid: FieldSet) {
        debug_assert!(vals.len() >= valid.len() as usize, "one value per replayed field");
        for (f, &v) in valid.iter().zip(vals) {
            self.vals[f.index()] = v;
        }
        self.valid = valid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{F_EFF_ADDR, F_SRC1};

    #[test]
    fn set_get() {
        let mut fr = Frame::new();
        assert_eq!(fr.get(F_SRC1), 0);
        assert!(!fr.has(F_SRC1));
        fr.set(F_SRC1, 42);
        assert_eq!(fr.get(F_SRC1), 42);
        assert_eq!(fr.try_get(F_SRC1), Some(42));
        assert!(fr.has(F_SRC1));
        assert_eq!(fr.try_get(F_EFF_ADDR), None);
    }

    #[test]
    fn clear_invalidates_without_zeroing() {
        let mut fr = Frame::new();
        fr.set(F_SRC1, 7);
        fr.clear();
        assert!(!fr.has(F_SRC1));
        assert_eq!(fr.get(F_SRC1), 0);
        assert_eq!(fr.raw(F_SRC1.index()), 7);
    }

    #[test]
    fn bulk_load() {
        let mut fr = Frame::new();
        fr.load([(F_SRC1, 1), (F_EFF_ADDR, 0x1000)]);
        assert_eq!(fr.valid().len(), 2);
        assert_eq!(fr.get(F_EFF_ADDR), 0x1000);
    }
}

//! Machine registers, register banks and register sets.
//!
//! The framework is architecture-agnostic: it only knows about *register
//! banks* (general-purpose and floating-point/vector) and abstract register
//! indices within a bank. The target implementation maps these to concrete
//! machine registers when encoding instructions.

use std::fmt;

/// Register bank of a value part.
///
/// Values are assigned to a preferred bank by the IR adapter; the framework
/// allocates registers from that bank.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegBank {
    /// General-purpose (integer/pointer) registers.
    GP = 0,
    /// Floating-point / vector registers.
    FP = 1,
}

impl RegBank {
    /// Number of register banks known to the framework.
    pub(crate) const COUNT: usize = 2;

    /// All banks, in index order.
    pub(crate) const ALL: [RegBank; 2] = [RegBank::GP, RegBank::FP];

    /// Bank index usable for array indexing.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name, used in diagnostics.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RegBank::GP => "gp",
            RegBank::FP => "fp",
        }
    }
}

impl fmt::Display for RegBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An abstract machine register: a bank plus an index within the bank.
///
/// The index is the *architectural* register number (e.g. on x86-64,
/// `Reg::new(RegBank::GP, 0)` is `rax` and `Reg::new(RegBank::FP, 3)` is
/// `xmm3`), so encoders can use it directly.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register from a bank and an architectural index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`; both supported targets have at most 32
    /// registers per bank.
    #[inline]
    pub fn new(bank: RegBank, index: u8) -> Reg {
        assert!(index < 32, "register index {index} out of range");
        Reg(((bank as u8) << 5) | index)
    }

    /// The register's bank.
    #[inline]
    pub fn bank(self) -> RegBank {
        if self.0 & 0x20 == 0 {
            RegBank::GP
        } else {
            RegBank::FP
        }
    }

    /// The architectural index within the bank (0..32).
    #[inline]
    pub fn index(self) -> u8 {
        self.0 & 0x1f
    }

    /// A compact id unique across banks, suitable for array indexing (0..64).
    #[inline]
    pub(crate) fn compact(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.bank().name(), self.index())
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.bank().name(), self.index())
    }
}

/// A set of registers across both banks, stored as a 64-bit bitmap.
///
/// Bit layout matches `Reg::compact`: bits 0..32 are GP registers, bits
/// 32..64 are FP registers.
#[derive(Copy, Clone, Default, PartialEq, Eq, Hash)]
pub struct RegSet(u64);

impl RegSet {
    /// The empty set.
    #[inline]
    pub fn empty() -> RegSet {
        RegSet(0)
    }

    /// Creates a set from an iterator of registers.
    pub fn from_regs<I: IntoIterator<Item = Reg>>(iter: I) -> RegSet {
        let mut s = RegSet::empty();
        for r in iter {
            s.insert(r);
        }
        s
    }

    /// Returns `true` if no register is in the set.
    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Inserts a register.
    #[inline]
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1u64 << r.compact();
    }

    /// Removes a register.
    #[inline]
    pub(crate) fn remove(&mut self, r: Reg) {
        self.0 &= !(1u64 << r.compact());
    }

    /// Returns `true` if the register is in the set.
    #[inline]
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1u64 << r.compact()) != 0
    }

    /// Iterates over the registers in the set in ascending compact order.
    pub(crate) fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let idx = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            let bank = if idx < 32 { RegBank::GP } else { RegBank::FP };
            Some(Reg::new(bank, idx & 0x1f))
        })
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> Self {
        RegSet::from_regs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip() {
        for bank in RegBank::ALL {
            for i in 0..32u8 {
                let r = Reg::new(bank, i);
                assert_eq!(r.bank(), bank);
                assert_eq!(r.index(), i);
            }
        }
    }

    #[test]
    #[should_panic]
    fn reg_index_out_of_range_panics() {
        let _ = Reg::new(RegBank::GP, 32);
    }

    #[test]
    fn compact_ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for bank in RegBank::ALL {
            for i in 0..32u8 {
                assert!(seen.insert(Reg::new(bank, i).compact()));
            }
        }
    }

    #[test]
    fn regset_basic_ops() {
        let mut s = RegSet::empty();
        assert!(s.is_empty());
        let a = Reg::new(RegBank::GP, 1);
        let b = Reg::new(RegBank::FP, 1);
        s.insert(a);
        s.insert(b);
        assert_eq!(s.iter().count(), 2);
        assert!(s.contains(a));
        assert!(s.contains(b));
        s.remove(a);
        assert!(!s.contains(a));
        assert!(s.contains(b));
    }

    #[test]
    fn regset_iter_and_setops() {
        let a: RegSet = (0..4).map(|i| Reg::new(RegBank::GP, i)).collect();
        let b: RegSet = (2..6).map(|i| Reg::new(RegBank::GP, i)).collect();
        assert_eq!(a.iter().filter(|&r| !b.contains(r)).count(), 2);
        let collected: Vec<Reg> = a.iter().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[0], Reg::new(RegBank::GP, 0));
    }

    #[test]
    fn regset_display_of_reg() {
        assert_eq!(Reg::new(RegBank::GP, 7).to_string(), "gp7");
        assert_eq!(Reg::new(RegBank::FP, 15).to_string(), "fp15");
    }
}

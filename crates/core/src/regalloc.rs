//! The register file: tracking which value part occupies which register
//! during the single code-generation pass.
//!
//! Register allocation in TPDE is strictly local and greedy (§3.4.5): when a
//! register is needed and one is free, the lowest-numbered free register is
//! used; otherwise an arbitrary evictable register is chosen round-robin and
//! its value is spilled by the code generator. Locked registers (operands of
//! the current instruction) and fixed registers (innermost-loop values) are
//! never evicted.
//!
//! Free/locked/fixed state is one `u64` bitmask per bank, indexed by
//! *allocation-order position*, so the allocation queries (`find_free`,
//! `pick_eviction` without constraint sets) are a couple of bit operations
//! plus a trailing-zeros count, and releasing an instruction's locks is two
//! stores. `find_free` prefers the earliest register in
//! allocation-preference order, and eviction rotates round-robin.

use crate::adapter::ValueRef;
use crate::regs::{Reg, RegBank, RegSet};

/// Who currently owns a register.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum RegOwner {
    /// A value part.
    Value(ValueRef, u32),
    /// A temporary (scratch) register requested by an instruction compiler.
    Scratch,
}

/// Sentinel for "register is not allocatable" in the position table.
const NO_POS: u8 = u8::MAX;

/// Tracks the state of every register of both banks.
#[derive(Debug)]
pub(crate) struct RegFile {
    /// Owner per compact register number.
    owners: [Option<RegOwner>; 64],
    /// Registers pinned to a value (allocatable or not).
    fixed: RegSet,
    allocatable: [Vec<Reg>; 2],
    clock: [usize; 2],
    /// Compact register number → allocation-order position (`NO_POS` if the
    /// register is not allocatable).
    pos_of: [u8; 64],
    /// Bit per allocation-order position: register has no owner.
    free: [u64; 2],
    /// Bit per allocation-order position: locked for the current
    /// instruction. Locks do not nest: this mask is their whole state.
    locked: [u64; 2],
    /// Bit per allocation-order position: pinned to a value (never evicted).
    pinned: [u64; 2],
    /// Bit per allocation-order position: position exists.
    all: [u64; 2],
}

impl Default for RegFile {
    /// An empty register file with no allocatable registers; configure it
    /// with [`RegFile::configure`] before use.
    fn default() -> RegFile {
        RegFile::new(&[], &[])
    }
}

impl RegFile {
    /// Creates a register file with the given allocatable registers per bank
    /// (in allocation preference order).
    pub(crate) fn new(gp: &[Reg], fp: &[Reg]) -> RegFile {
        let mut f = RegFile {
            owners: [None; 64],
            fixed: RegSet::empty(),
            allocatable: [Vec::new(), Vec::new()],
            clock: [0, 0],
            pos_of: [NO_POS; 64],
            free: [0, 0],
            locked: [0, 0],
            pinned: [0, 0],
            all: [0, 0],
        };
        f.configure(gp, fp);
        f
    }

    /// Resets the register file for a (possibly different) target,
    /// clearing all ownership state but keeping buffer capacity. Used by
    /// compile sessions that reuse one `RegFile` across functions.
    pub(crate) fn configure(&mut self, gp: &[Reg], fp: &[Reg]) {
        self.pos_of = [NO_POS; 64];
        self.allocatable[0].clear();
        self.allocatable[0].extend_from_slice(gp);
        self.allocatable[1].clear();
        self.allocatable[1].extend_from_slice(fp);
        for bank in 0..2 {
            assert!(
                self.allocatable[bank].len() <= 64,
                "more than 64 allocatable registers in one bank"
            );
            for (i, &r) in self.allocatable[bank].iter().enumerate() {
                self.pos_of[r.compact()] = i as u8;
            }
            let n = self.allocatable[bank].len();
            self.all[bank] = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        }
        self.reset();
    }

    /// Bank index and position mask bit of a register, if it is allocatable.
    #[inline]
    fn pos_bit(&self, r: Reg) -> Option<(usize, u64)> {
        let pos = self.pos_of[r.compact()];
        if pos == NO_POS {
            None
        } else {
            Some((r.bank().index(), 1u64 << pos))
        }
    }

    /// Clears ownership, locks and pinning of every register (start of a new
    /// function), keeping the allocatable sets.
    pub(crate) fn reset(&mut self) {
        self.owners = [None; 64];
        self.fixed = RegSet::empty();
        self.free = self.all;
        self.locked = [0, 0];
        self.pinned = [0, 0];
        self.clock = [0, 0];
    }

    /// Current owner of a register.
    #[inline]
    pub(crate) fn owner(&self, r: Reg) -> Option<RegOwner> {
        self.owners[r.compact()]
    }

    /// Whether the register is pinned to a value for its whole live range.
    pub(crate) fn is_fixed(&self, r: Reg) -> bool {
        self.fixed.contains(r)
    }

    /// Marks `r` as owned by `owner`. Does not touch lock state.
    #[inline]
    pub(crate) fn set_owner(&mut self, r: Reg, owner: RegOwner) {
        self.owners[r.compact()] = Some(owner);
        if let Some((b, bit)) = self.pos_bit(r) {
            self.free[b] &= !bit;
        }
    }

    /// Marks `r` as owned by a value part and pinned (never evicted).
    pub(crate) fn set_fixed(&mut self, r: Reg, v: ValueRef, part: u32) {
        self.owners[r.compact()] = Some(RegOwner::Value(v, part));
        self.fixed.insert(r);
        if let Some((b, bit)) = self.pos_bit(r) {
            self.free[b] &= !bit;
            self.pinned[b] |= bit;
        }
    }

    /// Clears ownership, pinning and the lock of a register.
    #[inline]
    pub(crate) fn clear(&mut self, r: Reg) {
        self.owners[r.compact()] = None;
        self.fixed.remove(r);
        if let Some((b, bit)) = self.pos_bit(r) {
            self.free[b] |= bit;
            self.pinned[b] &= !bit;
            self.locked[b] &= !bit;
        }
    }

    /// Locks a register against eviction until the end of the instruction.
    #[inline]
    pub(crate) fn lock(&mut self, r: Reg) {
        if let Some((b, bit)) = self.pos_bit(r) {
            self.locked[b] |= bit;
        }
    }

    /// Releases every lock (end of instruction).
    #[inline]
    pub(crate) fn end_inst(&mut self) {
        self.locked = [0, 0];
    }

    /// Restricts a position mask by the `exclude`/`within` register sets
    /// (slow path; both are usually trivial on the hot path).
    fn restrict_mask(
        &self,
        bank: RegBank,
        mut mask: u64,
        exclude: RegSet,
        within: Option<RegSet>,
    ) -> u64 {
        if exclude.is_empty() && within.is_none() {
            return mask;
        }
        for (i, &r) in self.allocatable[bank.index()].iter().enumerate() {
            if exclude.contains(r) || within.is_some_and(|w| !w.contains(r)) {
                mask &= !(1u64 << i);
            }
        }
        mask
    }

    /// Finds a free allocatable register of `bank`, preferring the lowest
    /// allocation-order index, excluding registers in `exclude` and, if
    /// `within` is non-empty, restricting the choice to `within`. With no
    /// constraint sets this is a single trailing-zeros count on the bank's
    /// free mask.
    pub(crate) fn find_free(
        &self,
        bank: RegBank,
        exclude: RegSet,
        within: Option<RegSet>,
    ) -> Option<Reg> {
        let m = self.restrict_mask(bank, self.free[bank.index()], exclude, within);
        if m == 0 {
            None
        } else {
            Some(self.allocatable[bank.index()][m.trailing_zeros() as usize])
        }
    }

    /// Chooses a register of `bank` to evict, round-robin, skipping locked,
    /// fixed and excluded registers. Returns `None` if every candidate is
    /// unavailable.
    pub(crate) fn pick_eviction(
        &mut self,
        bank: RegBank,
        exclude: RegSet,
        within: Option<RegSet>,
    ) -> Option<Reg> {
        let bi = bank.index();
        let n = self.allocatable[bi].len();
        if n == 0 {
            return None;
        }
        let base = self.all[bi] & !self.locked[bi] & !self.pinned[bi];
        let m = self.restrict_mask(bank, base, exclude, within);
        if m == 0 {
            return None;
        }
        // First candidate at or after the clock hand, wrapping around.
        let start = self.clock[bi] % n;
        let rotated = m & (u64::MAX << start);
        let pos = if rotated != 0 { rotated } else { m }.trailing_zeros() as usize;
        self.clock[bi] = (pos + 1) % n;
        Some(self.allocatable[bi][pos])
    }

    /// Appends all registers currently owned by value parts to `out` (used
    /// when spilling before branches or calls; callers keep a reusable
    /// scratch buffer).
    pub(crate) fn value_owned_into(&self, out: &mut Vec<(Reg, ValueRef, u32)>) {
        for bank in RegBank::ALL {
            let bi = bank.index();
            // owned = allocatable positions that are not free
            let mut owned = self.all[bi] & !self.free[bi];
            while owned != 0 {
                let pos = owned.trailing_zeros() as usize;
                owned &= owned - 1;
                let r = self.allocatable[bi][pos];
                if let Some(RegOwner::Value(v, p)) = self.owners[r.compact()] {
                    out.push((r, v, p));
                }
            }
        }
    }

    /// Clears ownership of every non-fixed register (register state reset at
    /// block boundaries with unknown predecessors), appending the cleared
    /// registers and their owners to `out` so the caller can update
    /// assignments.
    pub(crate) fn reset_non_fixed_into(&mut self, out: &mut Vec<(Reg, RegOwner)>) {
        for bank in RegBank::ALL {
            let bi = bank.index();
            let mut owned = self.all[bi] & !self.free[bi] & !self.pinned[bi];
            while owned != 0 {
                let pos = owned.trailing_zeros() as usize;
                owned &= owned - 1;
                let r = self.allocatable[bi][pos];
                if let Some(o) = self.owners[r.compact()].take() {
                    out.push((r, o));
                }
            }
            // Every non-fixed register is now unowned and unlocked; fixed
            // registers keep their owners (set_fixed implies an owner, so
            // pinned ⟹ !free).
            self.free[bi] = self.all[bi] & !self.pinned[bi];
            self.locked[bi] &= self.pinned[bi];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(i: u8) -> Reg {
        Reg::new(RegBank::GP, i)
    }

    fn file() -> RegFile {
        RegFile::new(&[gp(0), gp(1), gp(2)], &[Reg::new(RegBank::FP, 0)])
    }

    fn value_owned(f: &RegFile) -> Vec<(Reg, ValueRef, u32)> {
        let mut out = Vec::new();
        f.value_owned_into(&mut out);
        out
    }

    #[test]
    fn find_free_prefers_lowest() {
        let mut f = file();
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), Some(gp(0)));
        f.set_owner(gp(0), RegOwner::Scratch);
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), Some(gp(1)));
        let mut excl = RegSet::empty();
        excl.insert(gp(1));
        assert_eq!(f.find_free(RegBank::GP, excl, None), Some(gp(2)));
    }

    #[test]
    fn find_free_prefers_allocation_order_not_register_number() {
        // allocation preference order deliberately not sorted by number
        let f = RegFile::new(&[gp(5), gp(1), gp(3)], &[]);
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), Some(gp(5)));
        let mut excl = RegSet::empty();
        excl.insert(gp(5));
        assert_eq!(f.find_free(RegBank::GP, excl, None), Some(gp(1)));
    }

    #[test]
    fn find_free_with_constraint_set() {
        let f = file();
        let mut within = RegSet::empty();
        within.insert(gp(2));
        assert_eq!(
            f.find_free(RegBank::GP, RegSet::empty(), Some(within)),
            Some(gp(2))
        );
    }

    #[test]
    fn eviction_is_round_robin_and_skips_locked_fixed() {
        let mut f = file();
        for i in 0..3 {
            f.set_owner(gp(i), RegOwner::Value(ValueRef(i as u32), 0));
        }
        f.lock(gp(0));
        f.set_fixed(gp(1), ValueRef(1), 0);
        // only gp2 is evictable
        assert_eq!(
            f.pick_eviction(RegBank::GP, RegSet::empty(), None),
            Some(gp(2))
        );
        f.end_inst();
        // round robin continues after gp2 -> wraps to gp0
        assert_eq!(
            f.pick_eviction(RegBank::GP, RegSet::empty(), None),
            Some(gp(0))
        );
        // all locked -> none
        f.lock(gp(0));
        f.lock(gp(2));
        assert_eq!(f.pick_eviction(RegBank::GP, RegSet::empty(), None), None);
    }

    #[test]
    fn reset_non_fixed_keeps_fixed() {
        let mut f = file();
        f.set_owner(gp(0), RegOwner::Value(ValueRef(0), 0));
        f.set_fixed(gp(1), ValueRef(1), 0);
        let mut cleared = Vec::new();
        f.reset_non_fixed_into(&mut cleared);
        assert_eq!(cleared.len(), 1);
        assert_eq!(f.owner(gp(0)), None);
        assert_eq!(f.owner(gp(1)), Some(RegOwner::Value(ValueRef(1), 0)));
        assert!(f.is_fixed(gp(1)));
        // the cleared register is free again, the fixed one is not
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), Some(gp(0)));
        let mut within = RegSet::empty();
        within.insert(gp(1));
        assert_eq!(
            f.find_free(RegBank::GP, RegSet::empty(), Some(within)),
            None
        );
    }

    #[test]
    fn value_owned_lists_only_values() {
        let mut f = file();
        f.set_owner(gp(0), RegOwner::Scratch);
        f.set_owner(gp(2), RegOwner::Value(ValueRef(7), 1));
        assert_eq!(value_owned(&f), vec![(gp(2), ValueRef(7), 1)]);
    }

    #[test]
    fn locks_do_not_nest_and_end_with_the_instruction() {
        let mut f = file();
        for i in 0..3 {
            f.set_owner(gp(i), RegOwner::Scratch);
        }
        f.lock(gp(0));
        f.lock(gp(0));
        f.lock(gp(1));
        f.clear(gp(0)); // clearing a register drops its lock
        f.set_owner(gp(0), RegOwner::Scratch);
        let mut only = RegSet::empty();
        only.insert(gp(0));
        assert_eq!(
            f.pick_eviction(RegBank::GP, RegSet::empty(), Some(only)),
            Some(gp(0))
        );
        only.insert(gp(1));
        only.remove(gp(0));
        assert_eq!(
            f.pick_eviction(RegBank::GP, RegSet::empty(), Some(only)),
            None
        );
        f.end_inst();
        assert_eq!(
            f.pick_eviction(RegBank::GP, RegSet::empty(), Some(only)),
            Some(gp(1))
        );
    }

    #[test]
    fn masks_track_state_through_clear_and_reset() {
        let mut f = file();
        for i in 0..3 {
            f.set_owner(gp(i), RegOwner::Value(ValueRef(i as u32), 0));
        }
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), None);
        f.clear(gp(1));
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), Some(gp(1)));
        f.reset();
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), Some(gp(0)));
        assert_eq!(value_owned(&f), vec![]);
    }

    /// One register of the naive model the random test compares against.
    #[derive(Copy, Clone, Default)]
    struct ModelReg {
        owner: Option<RegOwner>,
        fixed: bool,
        locked: bool,
    }

    #[test]
    fn random_operations_agree_with_a_per_register_model() {
        use crate::rng::Xoshiro256;
        // allocation order deliberately unsorted; gp(9) is never allocatable
        let order = [
            vec![gp(5), gp(1), gp(3), gp(0), gp(7)],
            vec![Reg::new(RegBank::FP, 2), Reg::new(RegBank::FP, 0)],
        ];
        let mut regs: Vec<Reg> = order.concat();
        regs.push(gp(9));
        let mut rng = Xoshiro256::new(0x5eed);
        let mut f = RegFile::new(&order[0], &order[1]);
        let mut model = [ModelReg::default(); 64];
        let mut clock = [0usize; 2];

        for step in 0..20_000 {
            let r = *rng.pick(&regs);
            let m = &mut model[r.compact()];
            let value = RegOwner::Value(ValueRef(rng.below(8) as u32), rng.below(2) as u32);
            match rng.below(9) {
                0 | 1 => {
                    let owner = if rng.chance(1, 4) {
                        RegOwner::Scratch
                    } else {
                        value
                    };
                    f.set_owner(r, owner);
                    m.owner = Some(owner);
                }
                2 => {
                    let RegOwner::Value(v, p) = value else {
                        unreachable!()
                    };
                    f.set_fixed(r, v, p);
                    *m = ModelReg {
                        owner: Some(value),
                        fixed: true,
                        ..*m
                    };
                }
                3 | 4 => {
                    f.lock(r);
                    m.locked = true;
                }
                5 | 6 => {
                    f.clear(r);
                    *m = ModelReg::default();
                }
                7 => {
                    f.end_inst();
                    model.iter_mut().for_each(|m| m.locked = false);
                }
                _ => {
                    let mut cleared = Vec::new();
                    f.reset_non_fixed_into(&mut cleared);
                    let mut expected = Vec::new();
                    for &r in order.iter().flatten() {
                        let m = &mut model[r.compact()];
                        if !m.fixed {
                            expected.extend(m.owner.map(|o| (r, o)));
                            *m = ModelReg::default();
                        }
                    }
                    assert_eq!(cleared, expected, "step {step}");
                }
            }

            for &r in &regs {
                assert_eq!(f.owner(r), model[r.compact()].owner, "step {step}");
                assert_eq!(f.is_fixed(r), model[r.compact()].fixed, "step {step}");
            }
            let owned: Vec<_> = order
                .iter()
                .flatten()
                .filter_map(|&r| match model[r.compact()].owner {
                    Some(RegOwner::Value(v, p)) => Some((r, v, p)),
                    _ => None,
                })
                .collect();
            assert_eq!(value_owned(&f), owned, "step {step}");

            for bank in RegBank::ALL {
                let order = &order[bank.index()];
                let random_set = |rng: &mut Xoshiro256| -> RegSet {
                    order.iter().copied().filter(|_| rng.chance(1, 3)).collect()
                };
                let exclude = if rng.chance(1, 2) {
                    RegSet::empty()
                } else {
                    random_set(&mut rng)
                };
                let within = rng.chance(1, 2).then(|| random_set(&mut rng));
                let allowed = |r: Reg| !exclude.contains(r) && within.is_none_or(|w| w.contains(r));
                let free = order
                    .iter()
                    .copied()
                    .find(|&r| model[r.compact()].owner.is_none() && allowed(r));
                assert_eq!(f.find_free(bank, exclude, within), free, "step {step}");

                let n = order.len();
                let hand = clock[bank.index()];
                let victim = (0..n).map(|i| (hand + i) % n).find(|&pos| {
                    let m = model[order[pos].compact()];
                    !m.locked && !m.fixed && allowed(order[pos])
                });
                assert_eq!(
                    f.pick_eviction(bank, exclude, within),
                    victim.map(|pos| order[pos]),
                    "step {step}"
                );
                if let Some(pos) = victim {
                    clock[bank.index()] = (pos + 1) % n;
                }
            }
        }
    }

    #[test]
    fn full_bank_of_64_registers_is_supported() {
        let regs: Vec<Reg> = (0..32).map(gp).collect();
        let mut f = RegFile::new(&regs, &[]);
        for &r in &regs {
            f.set_owner(r, RegOwner::Scratch);
        }
        assert_eq!(f.find_free(RegBank::GP, RegSet::empty(), None), None);
        f.clear(gp(31));
        assert_eq!(
            f.find_free(RegBank::GP, RegSet::empty(), None),
            Some(gp(31))
        );
    }
}

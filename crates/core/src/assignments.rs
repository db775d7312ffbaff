//! Value assignments: the per-value state tracked during code generation.
//!
//! For every live value the framework stores an [`Assignment`]: a stack
//! frame slot for spilling, the remaining number of uses, whether the value
//! is trivially recomputable, and per value part the current register,
//! whether the stack slot holds the current value, and whether the part is
//! pinned to a fixed register (§3.4.1 of the paper).

use crate::adapter::ValueRef;
use crate::regs::{Reg, RegBank};

/// How a value can be rematerialized instead of being spilled/reloaded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Recompute {
    /// The value is the address of a stack variable: `frame_reg + offset`.
    StackAddr(i32),
}

/// State of one part of a value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PartState {
    /// Register currently holding the part, if any.
    pub reg: Option<Reg>,
    /// Size of the part in bytes.
    pub size: u8,
    /// Register bank of the part.
    pub bank: RegBank,
    /// Whether the stack slot currently holds the correct value. If `false`
    /// and `reg` is `Some`, the register is the only location of the value.
    pub in_mem: bool,
    /// Whether the part is pinned to `reg` for its whole live range
    /// (innermost-loop heuristic); fixed parts are never spilled or evicted.
    pub fixed: bool,
}

impl PartState {
    /// An unassigned part of the given size and bank.
    pub fn new(size: u8, bank: RegBank) -> PartState {
        PartState {
            reg: None,
            size,
            bank,
            in_mem: false,
            fixed: false,
        }
    }
}

/// Most parts a value can have (1 for scalars, 2 for 128-bit integers);
/// the code generator rejects wider values as unsupported.
pub const MAX_PARTS: usize = 2;

/// Per-value state during code generation.
///
/// One is created for every value the code generator touches, so it is
/// `Copy` and small: the table below is filled and swept per function.
#[derive(Copy, Clone, Debug)]
pub struct Assignment {
    /// Frame offset (relative to the frame pointer) of the spill slot,
    /// or `None` if no slot has been allocated yet.
    pub frame_off: Option<i32>,
    /// If set, the (single-part) value is recomputed instead of spilled.
    pub recompute: Option<Recompute>,
    /// Number of uses the code generator has not yet seen.
    pub remaining_uses: u32,
    /// Layout position of the last block the value is live in.
    pub last_pos: u32,
    /// Whether liveness extends to the end of `last_pos`.
    pub last_full: bool,
    /// Whether only phi moves on `last_pos`'s out-edges need the value at
    /// the end of that block ([`crate::analysis::LiveRange::phi_end`]).
    pub phi_end: bool,
    /// Whether `frame_off` is the value's home: memory the value was
    /// defined in (a stack variable it was loaded from), which it does not
    /// own. A homed value is never spilled, and its home is never freed.
    pub homed: bool,
    /// Whether a homed value has been read from its home into a register
    /// once: that first read stands for the IR's load, later ones are
    /// reloads.
    pub home_read: bool,
    /// Number of parts in use.
    pub nparts: u8,
    /// Per-part state; entries from `nparts` on are unused.
    pub parts: [PartState; MAX_PARTS],
}

const _: () = assert!(std::mem::size_of::<Option<Assignment>>() <= 48);

impl Assignment {
    /// Total spill size in bytes (each part padded to 8 bytes so part
    /// offsets are trivially computable).
    pub fn spill_size(&self) -> u32 {
        self.nparts as u32 * 8
    }

    /// Byte offset of a part within the value's spill slot.
    pub fn part_offset(&self, part: u32) -> i32 {
        part as i32 * 8
    }
}

/// Table of assignments indexed by value number.
#[derive(Debug, Default)]
pub struct AssignmentTable {
    slots: Vec<Option<Assignment>>,
    /// Every value inserted since the last prune, with its `last_pos`, in
    /// insertion order (the order the block-boundary sweep frees in). May
    /// name values whose assignment is already gone.
    active: Vec<(ValueRef, u32)>,
}

impl AssignmentTable {
    /// Whether a value currently has an assignment.
    pub fn contains(&self, v: ValueRef) -> bool {
        self.slots.get(v.idx()).is_some_and(|s| s.is_some())
    }

    /// Inserts an assignment for a value (replacing any existing one).
    pub fn insert(&mut self, v: ValueRef, a: Assignment) {
        if self.slots[v.idx()].is_none() {
            self.active.push((v, a.last_pos));
        }
        self.slots[v.idx()] = Some(a);
    }

    /// Shared access to a value's assignment.
    pub fn get(&self, v: ValueRef) -> Option<&Assignment> {
        self.slots.get(v.idx()).and_then(|s| s.as_ref())
    }

    /// Mutable access to a value's assignment.
    pub fn get_mut(&mut self, v: ValueRef) -> Option<&mut Assignment> {
        self.slots.get_mut(v.idx()).and_then(|s| s.as_mut())
    }

    /// Removes a value's assignment and returns it.
    pub fn remove(&mut self, v: ValueRef) -> Option<Assignment> {
        self.slots.get_mut(v.idx()).and_then(|s| s.take())
    }

    /// The `i`-th active-list entry: a value and its `last_pos`.
    pub fn active(&self, i: usize) -> Option<(ValueRef, u32)> {
        self.active.get(i).copied()
    }

    /// Drops the active-list entries whose live range ended before layout
    /// position `pos`. The caller has removed those values; a value removed
    /// earlier was at its `last_pos` then, so its entry goes here too.
    pub fn prune_active(&mut self, pos: u32) {
        self.active.retain(|&(_, last)| last >= pos);
    }

    /// Clears all assignments and sizes the table for a new function. Only
    /// the slots the previous function filled are written.
    pub fn reset(&mut self, value_count: usize) {
        for (v, _) in self.active.drain(..) {
            self.slots[v.idx()] = None;
        }
        self.slots.resize(value_count, None);
    }
}

/// Allocates spill slots and stack-variable storage in the function frame.
///
/// Offsets are negative, relative to the frame pointer, growing downwards.
/// The first `reserved` bytes below the frame pointer are owned by the
/// target (callee-save area).
#[derive(Debug, Default)]
pub struct FrameAlloc {
    next_off: i32,
    free8: Vec<i32>,
    free16: Vec<i32>,
}

impl FrameAlloc {
    /// Creates a frame allocator with `reserved` bytes already used below the
    /// frame pointer.
    pub fn new(reserved: u32) -> FrameAlloc {
        FrameAlloc {
            next_off: -(reserved as i32),
            free8: Vec::new(),
            free16: Vec::new(),
        }
    }

    /// Resets the allocator for a new function, keeping the free-list
    /// buffers' capacity.
    pub fn reset(&mut self, reserved: u32) {
        self.next_off = -(reserved as i32);
        self.free8.clear();
        self.free16.clear();
    }

    /// Allocates a slot of `size` bytes with the given alignment and returns
    /// its frame offset (negative).
    pub fn alloc(&mut self, size: u32, align: u32) -> i32 {
        let size = size.max(1);
        let align = align.max(1).max(if size >= 8 {
            8
        } else {
            size.next_power_of_two()
        });
        if align <= 8 && size <= 8 {
            if let Some(off) = self.free8.pop() {
                return off;
            }
        } else if align <= 16 && size <= 16 {
            if let Some(off) = self.free16.pop() {
                return off;
            }
        }
        let size = (size + align - 1) & !(align - 1);
        let mut off = self.next_off - size as i32;
        // align the (negative) offset
        off &= !(align as i32 - 1);
        self.next_off = off;
        off
    }

    /// Returns a slot to the allocator for reuse.
    pub fn free(&mut self, off: i32, size: u32) {
        if size <= 8 {
            self.free8.push(off);
        } else if size <= 16 {
            self.free16.push(off);
        }
        // larger slots (stack variables) are not recycled
    }

    /// Total frame size in bytes used so far (positive), 16-byte aligned.
    pub fn frame_size(&self) -> u32 {
        let raw = (-self.next_off) as u32;
        (raw + 15) & !15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(nparts: u8, remaining_uses: u32, last_pos: u32) -> Assignment {
        Assignment {
            frame_off: None,
            recompute: None,
            remaining_uses,
            last_pos,
            last_full: false,
            phi_end: false,
            homed: false,
            home_read: false,
            nparts,
            parts: [PartState::new(8, RegBank::GP); MAX_PARTS],
        }
    }

    fn table(value_count: usize) -> AssignmentTable {
        let mut t = AssignmentTable::default();
        t.reset(value_count);
        t
    }

    #[test]
    fn table_insert_get_remove() {
        let mut t = table(4);
        assert!(!t.contains(ValueRef(2)));
        t.insert(ValueRef(2), assignment(1, 3, 5));
        assert!(t.contains(ValueRef(2)));
        assert_eq!(t.get(ValueRef(2)).unwrap().remaining_uses, 3);
        t.get_mut(ValueRef(2)).unwrap().remaining_uses -= 1;
        assert_eq!(t.get(ValueRef(2)).unwrap().remaining_uses, 2);
        let a = t.remove(ValueRef(2)).unwrap();
        assert_eq!(a.remaining_uses, 2);
        assert!(!t.contains(ValueRef(2)));
    }

    #[test]
    fn spill_size_and_part_offsets() {
        let a = assignment(2, 0, 0);
        assert_eq!(a.spill_size(), 16);
        assert_eq!(a.part_offset(0), 0);
        assert_eq!(a.part_offset(1), 8);
    }

    #[test]
    fn prune_active_drops_ended_live_ranges() {
        let mut t = table(4);
        for (i, last_pos) in [(0, 2), (1, 0), (2, 1)] {
            t.insert(ValueRef(i), assignment(1, 0, last_pos));
        }
        t.remove(ValueRef(1));
        t.prune_active(1);
        assert_eq!(t.active(0), Some((ValueRef(0), 2)));
        assert_eq!(t.active(1), Some((ValueRef(2), 1)));
        assert_eq!(t.active(2), None);
    }

    #[test]
    fn reset_clears_every_slot_across_resizes() {
        let mut t = table(8);
        t.insert(ValueRef(7), assignment(1, 0, 0));
        t.insert(ValueRef(1), assignment(1, 0, 0));
        t.reset(2);
        assert!(!t.contains(ValueRef(1)));
        t.reset(8);
        assert!((0..8).all(|i| !t.contains(ValueRef(i))));
        assert_eq!(t.active(0), None);
    }

    #[test]
    fn frame_alloc_is_aligned_and_reuses_slots() {
        let mut f = FrameAlloc::new(64);
        let a = f.alloc(8, 8);
        assert!(a <= -64 - 8);
        assert_eq!(a % 8, 0);
        let b = f.alloc(8, 8);
        assert_ne!(a, b);
        f.free(a, 8);
        let c = f.alloc(8, 8);
        assert_eq!(c, a, "freed slot is reused");
        let big = f.alloc(64, 16);
        assert_eq!(big % 16, 0);
        assert!(f.frame_size().is_multiple_of(16));
        assert!(f.frame_size() >= 64 + 8 + 8 + 64);
    }

    #[test]
    fn frame_alloc_respects_reserved_area() {
        let mut f = FrameAlloc::new(48);
        let a = f.alloc(4, 4);
        assert!(a <= -48);
    }
}

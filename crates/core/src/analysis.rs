//! The analysis pass: loop detection, block layout and coarse liveness.
//!
//! Following the paper (§3.3), the pass performs four steps:
//!
//! 1. number all basic blocks so per-block data can live in arrays;
//! 2. identify loops with a single-DFS algorithm in the style of Wei et al.
//!    (tolerates irreducible control flow, needs no predecessor lists and no
//!    union-find); the whole function is wrapped in a pseudo root loop;
//! 3. compute the block layout: reverse post-order, with the additional rule
//!    that the blocks of a loop are laid out contiguously;
//! 4. compute, for every value, a coarse live range — a contiguous range of
//!    layout block indices, a flag whether liveness extends to the end of
//!    the last block (and whether only phi moves on that block's out-edges
//!    need it there), and the number of uses (Kohn et al. style).
//!
//! ## Reuse
//!
//! The pass runs once per function, so its working memory is designed to be
//! reused: [`Analyzer`] owns all scratch buffers and
//! [`Analyzer::analyze_into`] clears-and-refills a caller-owned [`Analysis`].
//! A module-level driver allocates one `Analyzer` and one `Analysis` and
//! reuses them for every function, so the steady-state compile loop performs
//! no analysis allocations.

use crate::adapter::{BlockRef, IrAdapter, ValueRef};
use crate::error::{Error, Result};

/// A loop in the loop forest. Loop 0 is the pseudo root covering the whole
/// function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// Parent loop id (the root loop is its own parent).
    pub(crate) parent: u32,
    /// Nesting level; the root loop has level 0.
    pub(crate) level: u32,
    /// First block of the loop in layout order (inclusive).
    pub(crate) begin: u32,
    /// Last block of the loop in layout order (inclusive).
    pub(crate) end: u32,
    /// Layout index of the loop header (== `begin` for natural loops).
    pub(crate) header: u32,
    /// Number of blocks in the loop, including nested loops.
    pub(crate) num_blocks: u32,
}

/// Coarse live range of one IR value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// Layout index of the first block the value is live in (its definition).
    pub(crate) first: u32,
    /// Layout index of the last block the value is live in.
    pub last: u32,
    /// If `true`, the value is live until the *end* of block `last`
    /// (e.g. because of a loop back edge or a phi use on an outgoing edge);
    /// otherwise it dies at its last use within the block.
    pub last_full: bool,
    /// If `true`, `last_full` holds only because the value is a phi
    /// incoming on an out-edge of block `last`: past its uses there, nothing
    /// but that edge's phi moves reads it. Loop extension and a phi's own
    /// back-edge range clear it.
    pub(crate) phi_end: bool,
    /// Number of uses the code generator will observe.
    pub uses: u32,
    /// Whether the value has a definition (arguments, phis, instruction
    /// results and stack variables do; constants and unused numbers do not).
    pub(crate) defined: bool,
}

impl Default for LiveRange {
    fn default() -> Self {
        LiveRange {
            first: u32::MAX,
            last: 0,
            last_full: false,
            phi_end: false,
            uses: 0,
            defined: false,
        }
    }
}

/// Result of the analysis pass for one function.
///
/// Designed for reuse: [`Analyzer::analyze_into`] clears and refills all
/// vectors, preserving their capacity across functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// Blocks in layout (compilation) order.
    pub layout: Vec<BlockRef>,
    /// Mapping from block index ([`BlockRef::idx`]) to layout position.
    pub block_pos: Vec<u32>,
    /// Innermost loop id of each block, indexed by layout position.
    pub(crate) block_loop: Vec<u32>,
    /// The loop forest. Entry 0 is the pseudo root loop.
    pub loops: Vec<LoopInfo>,
    /// Live range per value, indexed by [`ValueRef::idx`].
    pub(crate) liveness: Vec<LiveRange>,
    /// Number of predecessors per block, indexed by block index.
    pub(crate) num_preds: Vec<u32>,
}

impl Analysis {
    /// Layout position of a block.
    #[inline]
    pub fn pos(&self, block: BlockRef) -> u32 {
        self.block_pos[block.idx()]
    }

    /// Live range of a value.
    #[inline]
    pub fn live(&self, val: ValueRef) -> &LiveRange {
        &self.liveness[val.idx()]
    }

    /// Innermost loop id of the block at a layout position.
    #[inline]
    pub(crate) fn loop_of_pos(&self, pos: u32) -> u32 {
        self.block_loop[pos as usize]
    }

    /// Whether the block at layout position `pos` is the header of a
    /// non-root loop with more than one block.
    pub(crate) fn is_loop_header(&self, pos: u32) -> bool {
        let l = self.loop_of_pos(pos) as usize;
        l != 0 && self.loops[l].header == pos && self.loops[l].num_blocks > 1
    }
}

/// Explicit DFS stack entry: the block and the index of the next successor
/// to visit. Successors are re-queried from the adapter (a cheap slice
/// lookup), so frames stay small and allocation-free.
#[derive(Copy, Clone, Debug, Default)]
struct Frame {
    block: u32,
    next: u32,
}

#[derive(Debug, Default)]
struct LoopDiscovery {
    traversed: Vec<bool>,
    dfsp_pos: Vec<u32>,
    iloop_header: Vec<Option<u32>>,
    is_header: Vec<bool>,
    post_order: Vec<u32>,
    dfs_stack: Vec<Frame>,
}

impl LoopDiscovery {
    /// Clears all scratch state and resizes it for `n` blocks, preserving
    /// buffer capacity.
    fn reset(&mut self, n: usize) {
        self.traversed.clear();
        self.traversed.resize(n, false);
        self.dfsp_pos.clear();
        self.dfsp_pos.resize(n, 0);
        self.iloop_header.clear();
        self.iloop_header.resize(n, None);
        self.is_header.clear();
        self.is_header.resize(n, false);
        self.post_order.clear();
        self.dfs_stack.clear();
    }

    /// `tag_lhead` from Wei et al.: records that `block` is inside the loop
    /// headed by `header`, maintaining the innermost-header chain.
    fn tag_lhead(&mut self, block: u32, header: Option<u32>) {
        let Some(header) = header else { return };
        if block == header {
            return;
        }
        let mut cur1 = block;
        let mut cur2 = header;
        loop {
            match self.iloop_header[cur1 as usize] {
                None => {
                    self.iloop_header[cur1 as usize] = Some(cur2);
                    return;
                }
                Some(ih) => {
                    if ih == cur2 {
                        return;
                    }
                    if self.dfsp_pos[ih as usize] != 0
                        && self.dfsp_pos[ih as usize] < self.dfsp_pos[cur2 as usize]
                    {
                        self.iloop_header[cur1 as usize] = Some(cur2);
                        cur1 = cur2;
                        cur2 = ih;
                    } else {
                        cur1 = ih;
                    }
                }
            }
        }
    }

    /// Iterative DFS that discovers loop headers and header chains.
    fn run<A: IrAdapter>(&mut self, adapter: &A, entry: u32) {
        let mut stack = std::mem::take(&mut self.dfs_stack);
        let mut depth = 1u32;
        self.traversed[entry as usize] = true;
        self.dfsp_pos[entry as usize] = depth;
        stack.push(Frame {
            block: entry,
            next: 0,
        });

        while let Some(frame) = stack.last_mut() {
            let succs = adapter.block_succs(BlockRef(frame.block));
            if (frame.next as usize) < succs.len() {
                let succ = succs[frame.next as usize].0;
                // Successor indices are trusted here (dense-index contract);
                // the service path bounds-checks them with `crate::verify`
                // before analysis runs. Fail with a diagnosable message in
                // debug builds instead of an opaque slice panic below.
                debug_assert!(
                    (succ as usize) < self.traversed.len(),
                    "successor b{succ} out of range — IR must pass verify::Verifier first"
                );
                frame.next += 1;
                let b0 = frame.block;
                if !self.traversed[succ as usize] {
                    self.traversed[succ as usize] = true;
                    depth += 1;
                    self.dfsp_pos[succ as usize] = depth;
                    stack.push(Frame {
                        block: succ,
                        next: 0,
                    });
                } else if self.dfsp_pos[succ as usize] > 0 {
                    // back edge: succ is a loop header on the current path
                    self.is_header[succ as usize] = true;
                    self.tag_lhead(b0, Some(succ));
                } else if let Some(mut h) = self.iloop_header[succ as usize] {
                    if self.dfsp_pos[h as usize] > 0 {
                        self.tag_lhead(b0, Some(h));
                    } else {
                        // re-entry into an already-finished loop (irreducible):
                        // find the closest enclosing header that is on the path
                        while let Some(h2) = self.iloop_header[h as usize] {
                            h = h2;
                            if self.dfsp_pos[h as usize] > 0 {
                                self.tag_lhead(b0, Some(h));
                                break;
                            }
                        }
                    }
                }
            } else {
                // all successors handled: finish this block
                let finished = stack.pop().unwrap();
                self.dfsp_pos[finished.block as usize] = 0;
                self.post_order.push(finished.block);
                // propagate this block's innermost header to its DFS parent
                let nh = self.iloop_header[finished.block as usize];
                if let Some(parent) = stack.last() {
                    // Only propagate headers that are still on the DFS path;
                    // tag_lhead itself checks positions.
                    let propagate = match nh {
                        Some(h) if self.dfsp_pos[h as usize] > 0 => Some(h),
                        _ => {
                            if self.is_header[finished.block as usize] || nh.is_some() {
                                // find closest enclosing on-path header
                                let mut cur = if self.is_header[finished.block as usize] {
                                    Some(finished.block)
                                } else {
                                    nh
                                };
                                let mut found = None;
                                while let Some(c) = cur {
                                    if self.dfsp_pos[c as usize] > 0 {
                                        found = Some(c);
                                        break;
                                    }
                                    cur = self.iloop_header[c as usize];
                                }
                                found
                            } else {
                                None
                            }
                        }
                    };
                    let parent = parent.block;
                    self.tag_lhead(parent, propagate);
                }
            }
        }
        self.dfs_stack = stack;
    }
}

/// Reusable working memory of the analysis pass.
///
/// One `Analyzer` is owned per compile session; every call to
/// [`Analyzer::analyze_into`] clears and refills the scratch buffers, so
/// once they have grown to the largest function of a module no further
/// allocations happen.
#[derive(Debug, Default)]
pub struct Analyzer {
    disc: LoopDiscovery,
    rpo: Vec<u32>,
    rpo_index: Vec<u32>,
    emitted: Vec<bool>,
    headers: Vec<u32>,
    loop_id_of_header: Vec<u32>,
}

impl Analyzer {
    /// Creates an analyzer with empty scratch buffers.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// Steps 1–3 only: loop discovery and the block layout. Clears and
    /// refills `out.layout` and `out.block_pos` and leaves the rest of `out`
    /// as it was — all that [`crate::verify::Verifier`] needs, which never
    /// reads the loop forest or a live range.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidIr`] if the function has no blocks.
    pub fn layout_into<A: IrAdapter>(&mut self, adapter: &A, out: &mut Analysis) -> Result<()> {
        let num_blocks = adapter.block_count();
        if num_blocks == 0 {
            return Err(Error::InvalidIr("function has no basic blocks".into()));
        }
        // Block 0 is the entry by the adapter contract.
        let entry = 0u32;

        // --- step 1+2: loop discovery ------------------------------------------
        let disc = &mut self.disc;
        disc.reset(num_blocks);
        disc.run(adapter, entry);

        // --- step 3: block layout ----------------------------------------------
        // RPO over reachable blocks; unreachable blocks are appended at the
        // end in index order so they still get code generated. `traversed`
        // doubles as the reachability set (read in place, not cloned).
        let rpo = &mut self.rpo;
        rpo.clear();
        rpo.extend(disc.post_order.iter().rev().copied());
        for b in 0..num_blocks as u32 {
            if !disc.traversed[b as usize] {
                rpo.push(b);
            }
        }
        let rpo_index = &mut self.rpo_index;
        rpo_index.clear();
        rpo_index.resize(num_blocks, u32::MAX);
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b as usize] = i as u32;
        }

        // Transitive loop membership test: walk the header chain.
        let in_loop = |mut b: u32, header: u32, disc: &LoopDiscovery| -> bool {
            if b == header {
                return true;
            }
            while let Some(h) = disc.iloop_header[b as usize] {
                if h == header {
                    return true;
                }
                b = h;
            }
            false
        };

        // Emit blocks in RPO, but when reaching a loop header, emit the entire
        // loop (all blocks whose header chain contains it) contiguously.
        let layout = &mut out.layout;
        layout.clear();
        let emitted = &mut self.emitted;
        emitted.clear();
        emitted.resize(num_blocks, false);
        fn emit_block_or_loop(
            b: u32,
            rpo: &[u32],
            rpo_index: &[u32],
            disc: &LoopDiscovery,
            emitted: &mut [bool],
            layout: &mut Vec<BlockRef>,
            in_loop: &dyn Fn(u32, u32, &LoopDiscovery) -> bool,
        ) {
            if emitted[b as usize] {
                return;
            }
            if disc.is_header[b as usize] {
                // collect loop members in RPO order starting at the header
                emitted[b as usize] = true;
                layout.push(BlockRef(b));
                let start = rpo_index[b as usize] as usize;
                for &m in &rpo[start + 1..] {
                    if !emitted[m as usize] && in_loop(m, b, disc) {
                        // nested loop headers recurse so their members stay together
                        if disc.is_header[m as usize] {
                            emit_block_or_loop(m, rpo, rpo_index, disc, emitted, layout, in_loop);
                        } else {
                            emitted[m as usize] = true;
                            layout.push(BlockRef(m));
                        }
                    }
                }
            } else {
                emitted[b as usize] = true;
                layout.push(BlockRef(b));
            }
        }
        for &b in rpo.iter() {
            emit_block_or_loop(b, rpo, rpo_index, disc, emitted, layout, &in_loop);
        }
        debug_assert_eq!(layout.len(), num_blocks);

        let block_pos = &mut out.block_pos;
        block_pos.clear();
        block_pos.resize(num_blocks, u32::MAX);
        for (i, b) in layout.iter().enumerate() {
            block_pos[b.idx()] = i as u32;
        }

        Ok(())
    }

    /// Runs the analysis pass over the current function of `adapter`,
    /// clearing and refilling `out`.
    ///
    /// The result is identical to a run with fresh working memory; only
    /// the working memory is reused.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidIr`] if the function has no blocks.
    pub fn analyze_into<A: IrAdapter>(&mut self, adapter: &A, out: &mut Analysis) -> Result<()> {
        self.layout_into(adapter, out)?;
        let num_blocks = adapter.block_count();
        let disc = &self.disc;
        let (layout, block_pos) = (&out.layout, &out.block_pos);

        // --- build the loop forest ---------------------------------------------
        // Loop 0 is the pseudo root covering the whole function.
        let loops = &mut out.loops;
        loops.clear();
        loops.push(LoopInfo {
            parent: 0,
            level: 0,
            begin: 0,
            end: (num_blocks - 1) as u32,
            header: 0,
            num_blocks: num_blocks as u32,
        });
        let loop_id_of_header = &mut self.loop_id_of_header;
        loop_id_of_header.clear();
        loop_id_of_header.resize(num_blocks, u32::MAX);
        // create loops in layout order of their headers so parents come first
        let headers = &mut self.headers;
        headers.clear();
        headers.extend((0..num_blocks as u32).filter(|&b| disc.is_header[b as usize]));
        headers.sort_unstable_by_key(|&h| block_pos[h as usize]);
        for &h in headers.iter() {
            let id = loops.len() as u32;
            loop_id_of_header[h as usize] = id;
            loops.push(LoopInfo {
                parent: 0,
                level: 1,
                begin: block_pos[h as usize],
                end: block_pos[h as usize],
                header: block_pos[h as usize],
                num_blocks: 0,
            });
        }
        // parents and levels
        for &h in headers.iter() {
            let id = loop_id_of_header[h as usize];
            let parent = match disc.iloop_header[h as usize] {
                Some(ph) => loop_id_of_header[ph as usize],
                None => 0,
            };
            let parent = if parent == u32::MAX { 0 } else { parent };
            loops[id as usize].parent = parent;
        }
        // levels need parents resolved first (parents appear before children in
        // header layout order for reducible nests; recompute iteratively to be safe)
        for _ in 0..loops.len() {
            for i in 1..loops.len() {
                let p = loops[i].parent as usize;
                loops[i].level = loops[p].level + 1;
            }
        }

        // innermost loop per block + loop extents
        let block_loop = &mut out.block_loop;
        block_loop.clear();
        block_loop.resize(num_blocks, 0);
        for (pos, b) in layout.iter().enumerate() {
            let b = b.0;
            let innermost = if disc.is_header[b as usize] {
                loop_id_of_header[b as usize]
            } else {
                match disc.iloop_header[b as usize] {
                    Some(h) => loop_id_of_header[h as usize],
                    None => 0,
                }
            };
            let innermost = if innermost == u32::MAX { 0 } else { innermost };
            block_loop[pos] = innermost;
            // extend extents of the whole loop chain
            let mut l = innermost;
            loop {
                let li = &mut loops[l as usize];
                li.begin = li.begin.min(pos as u32);
                li.end = li.end.max(pos as u32);
                li.num_blocks += 1;
                if l == 0 {
                    break;
                }
                l = loops[l as usize].parent;
            }
        }
        // the root already covers everything; fix its counters
        loops[0].begin = 0;
        loops[0].end = (num_blocks - 1) as u32;
        loops[0].num_blocks = num_blocks as u32;

        // --- predecessors counts -----------------------------------------------
        let num_preds = &mut out.num_preds;
        num_preds.clear();
        num_preds.resize(num_blocks, 0);
        for b in 0..num_blocks as u32 {
            for s in adapter.block_succs(BlockRef(b)) {
                num_preds[s.idx()] += 1;
            }
        }

        // --- step 4: liveness --------------------------------------------------
        let liveness = &mut out.liveness;
        liveness.clear();
        liveness.resize(adapter.value_count(), LiveRange::default());

        let define = |liveness: &mut [LiveRange], v: ValueRef, pos: u32| {
            if let Some(lr) = liveness.get_mut(v.idx()) {
                lr.defined = true;
                lr.first = lr.first.min(pos);
                lr.last = lr.last.max(pos);
            }
        };

        // A use in a loop that does not contain the definition keeps the
        // value live to the end of the outermost such loop. With only the
        // root loop there is nothing to extend.
        let has_loops = loops.len() > 1;
        let extend_for_loops = |lr: &mut LiveRange, use_pos: u32| {
            let def_pos = if lr.defined { lr.first } else { use_pos };
            let mut l = block_loop[use_pos as usize];
            let mut candidate: Option<u32> = None;
            while l != 0 {
                let li = &loops[l as usize];
                if def_pos >= li.begin && def_pos <= li.end {
                    break;
                }
                candidate = Some(l);
                l = li.parent;
            }
            if let Some(c) = candidate {
                let end = loops[c as usize].end;
                if end >= lr.last {
                    lr.last = end;
                    lr.last_full = true;
                    lr.phi_end = false;
                }
            }
        };

        // `at_end` marks a phi incoming: the use sits at the end of `pos`.
        let add_use = |liveness: &mut [LiveRange], v: ValueRef, pos: u32, at_end: bool| {
            if v.idx() >= liveness.len() || adapter.val_is_const(v) {
                return;
            }
            let lr = &mut liveness[v.idx()];
            lr.uses += 1;
            lr.first = lr.first.min(pos);
            if pos > lr.last {
                lr.last = pos;
                lr.last_full = at_end;
                lr.phi_end = at_end;
            } else if pos == lr.last && at_end && !lr.last_full {
                lr.last_full = true;
                lr.phi_end = true;
            }
            if has_loops {
                extend_for_loops(lr, pos);
            }
        };

        // One walk in layout order: a definition precedes its uses there, so
        // each instruction's operand uses see the final definition position.
        for &arg in adapter.args() {
            define(liveness, arg, 0);
        }
        for sv in adapter.static_stack_vars() {
            define(liveness, sv.value, 0);
        }
        for (pos, &block) in layout.iter().enumerate() {
            let pos = pos as u32;
            for &phi in adapter.block_phis(block) {
                define(liveness, phi, pos);
            }
            for &inst in adapter.block_insts(block) {
                for &op in adapter.inst_operands(inst) {
                    add_use(liveness, op, pos, false);
                }
                for &res in adapter.inst_results(inst) {
                    define(liveness, res, pos);
                }
            }
        }

        // Phi incoming values are used at the end of the incoming block; a
        // back-edge value is defined after the phi's block in layout order,
        // so these uses come after the walk above.
        for b in 0..num_blocks as u32 {
            let ppos = block_pos[b as usize];
            for &phi in adapter.block_phis(BlockRef(b)) {
                for inc in adapter.phi_incoming(phi) {
                    let ipos = block_pos[inc.block.idx()];
                    add_use(liveness, inc.value, ipos, true);
                    // The phi itself is the move target of each incoming
                    // edge: it stays live to the end of every incoming block
                    // that is not laid out before it (back edges, the phi's
                    // own block included), mirroring the paper's handling.
                    let lr = &mut liveness[phi.idx()];
                    if ipos >= ppos && ipos >= lr.last {
                        lr.last = ipos;
                        lr.last_full = true;
                        lr.phi_end = false;
                    }
                }
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{FuncRef, InstRef};
    use crate::test_ir::{TestInst, TestIr};

    /// An instruction: the value it defines, if any, and the values it
    /// reads. Values `0..num_args` are arguments.
    type Inst = (Option<u32>, Vec<u32>);

    impl TestInst for Inst {
        fn result(&self) -> Option<u32> {
            self.0
        }
        fn operands(&self) -> Vec<u32> {
            self.1.clone()
        }
    }

    /// A CFG given as per-block successor lists, with [`Inst`]s.
    type Ir = TestIr<Inst>;

    /// Helper: index the IR (as `switch_func` would) and run a fresh
    /// analysis.
    fn run_analysis(ir: &mut Ir) -> Result<Analysis> {
        ir.switch_func(FuncRef(0));
        analyze(ir)
    }

    /// One analysis of `adapter`'s current function with fresh working
    /// memory.
    fn analyze<A: IrAdapter>(adapter: &A) -> Result<Analysis> {
        let mut out = Analysis::default();
        Analyzer::new().analyze_into(adapter, &mut out)?;
        Ok(out)
    }

    /// diamond: 0 -> {1,2} -> 3
    fn diamond() -> Ir {
        Ir::new(vec![vec![1, 2], vec![3], vec![3], vec![]], 1)
    }

    #[test]
    fn straight_line_layout() {
        let mut ir = Ir::new(vec![vec![1], vec![2], vec![]], 0);
        let a = run_analysis(&mut ir).unwrap();
        assert_eq!(a.layout, vec![BlockRef(0), BlockRef(1), BlockRef(2)]);
        assert_eq!(a.loops.len(), 1);
        assert_eq!(a.num_preds, vec![0, 1, 1]);
    }

    #[test]
    fn diamond_layout_is_rpo() {
        let mut ir = diamond();
        let a = run_analysis(&mut ir).unwrap();
        assert_eq!(a.pos(BlockRef(0)), 0);
        assert_eq!(a.pos(BlockRef(3)), 3);
        // both branches before the join
        assert!(a.pos(BlockRef(1)) < 3 && a.pos(BlockRef(2)) < 3);
        assert_eq!(a.num_preds[3], 2);
    }

    #[test]
    fn simple_loop_detected_and_contiguous() {
        // 0 -> 1; 1 -> {2, 3}; 2 -> 1; 3 (exit)
        let mut ir = Ir::new(vec![vec![1], vec![2, 3], vec![1], vec![]], 0);
        let a = run_analysis(&mut ir).unwrap();
        assert_eq!(a.loops.len(), 2, "one real loop plus the root");
        let l = &a.loops[1];
        assert_eq!(l.level, 1);
        // loop contains blocks 1 and 2 contiguously
        let p1 = a.pos(BlockRef(1));
        let p2 = a.pos(BlockRef(2));
        assert_eq!(l.begin, p1.min(p2));
        assert_eq!(l.end, p1.max(p2));
        assert_eq!(l.num_blocks, 2);
        assert_eq!(l.header, a.pos(BlockRef(1)));
        assert!(a.is_loop_header(a.pos(BlockRef(1))));
        // exit block is outside the loop
        assert_eq!(a.block_loop[a.pos(BlockRef(3)) as usize], 0);
    }

    #[test]
    fn nested_loops_have_levels() {
        // 0 -> 1; 1 -> 2; 2 -> {2? no}. Build: outer 1..4, inner 2..3
        // 0->1, 1->2, 2->3, 3->{2,4}, 4->{1,5}, 5 exit
        let mut ir = Ir::new(
            vec![vec![1], vec![2], vec![3], vec![2, 4], vec![1, 5], vec![]],
            0,
        );
        let a = run_analysis(&mut ir).unwrap();
        assert_eq!(a.loops.len(), 3);
        let depths: Vec<u32> = (0..6)
            .map(|b| a.loops[a.loop_of_pos(a.pos(BlockRef(b))) as usize].level)
            .collect();
        assert_eq!(depths[0], 0);
        assert_eq!(depths[1], 1);
        assert_eq!(depths[2], 2);
        assert_eq!(depths[3], 2);
        assert_eq!(depths[4], 1);
        assert_eq!(depths[5], 0);
    }

    #[test]
    fn irreducible_cfg_does_not_crash() {
        // 0 -> {1, 2}; 1 -> 2; 2 -> 1; 1 -> 3; 2 -> 3 (two-entry loop {1,2})
        let mut ir = Ir::new(vec![vec![1, 2], vec![2, 3], vec![1, 3], vec![]], 0);
        let a = run_analysis(&mut ir).unwrap();
        assert_eq!(a.layout.len(), 4);
        // every block has a position
        for b in 0..4u32 {
            assert!(a.pos(BlockRef(b)) < 4);
        }
    }

    #[test]
    fn unreachable_blocks_are_appended() {
        let mut ir = Ir::new(vec![vec![1], vec![], vec![1]], 0); // block 2 unreachable
        let a = run_analysis(&mut ir).unwrap();
        assert_eq!(a.layout.len(), 3);
        assert_eq!(a.pos(BlockRef(2)), 2);
    }

    #[test]
    fn liveness_straight_line() {
        // b0: v1 = use(arg0); b1: v2 = use(v1); b2: use(v2)
        let mut ir = Ir::new(vec![vec![1], vec![2], vec![]], 1);
        ir.push(0, (Some(1), vec![0]));
        ir.push(1, (Some(2), vec![1]));
        ir.push(2, (None, vec![2]));
        let a = run_analysis(&mut ir).unwrap();
        let l1 = a.live(ValueRef(1));
        assert_eq!((l1.first, l1.last, l1.uses), (0, 1, 1));
        assert!(!l1.last_full);
        let l0 = a.live(ValueRef(0));
        assert_eq!((l0.first, l0.last, l0.uses), (0, 0, 1));
        assert!(l0.defined);
    }

    #[test]
    fn liveness_extends_over_loop() {
        // v1 defined in block 0, used in loop body block 2; loop is {1,2,3}
        // 0 -> 1; 1 -> 2; 2 -> 3; 3 -> {1, 4}; 4 exit
        let mut ir = Ir::new(vec![vec![1], vec![2], vec![3], vec![1, 4], vec![]], 0);
        ir.push(0, (Some(0), vec![]));
        ir.push(2, (None, vec![0])); // use inside loop
        let a = run_analysis(&mut ir).unwrap();
        let lr = a.live(ValueRef(0));
        // must be extended to the end of the loop (block 3's layout pos)
        assert_eq!(lr.last, a.pos(BlockRef(3)));
        assert!(lr.last_full);
    }

    #[test]
    fn liveness_not_extended_when_def_inside_loop() {
        // value defined and used entirely inside the loop
        let mut ir = Ir::new(vec![vec![1], vec![2], vec![1, 3], vec![]], 0);
        ir.push(1, (Some(0), vec![]));
        ir.push(2, (None, vec![0]));
        let a = run_analysis(&mut ir).unwrap();
        let lr = a.live(ValueRef(0));
        assert_eq!(lr.first, a.pos(BlockRef(1)));
        assert_eq!(lr.last, a.pos(BlockRef(2)));
        assert!(!lr.last_full);
    }

    #[test]
    fn phi_incoming_counts_as_use_at_end_of_pred() {
        // 0 -> {1,2}; 1 -> 3; 2 -> 3; 3 has phi(v3) of v1 from 1, v2 from 2
        let mut ir = Ir::new(vec![vec![1, 2], vec![3], vec![3], vec![]], 0);
        ir.push(1, (Some(1), vec![]));
        ir.push(2, (Some(2), vec![]));
        ir.phi(3, 3, vec![(1, 1), (2, 2)]);
        ir.push(3, (None, vec![3]));
        let a = run_analysis(&mut ir).unwrap();
        let l1 = a.live(ValueRef(1));
        assert_eq!(l1.last, a.pos(BlockRef(1)));
        assert!(
            l1.last_full,
            "phi use keeps the value live to the end of the pred"
        );
        let l3 = a.live(ValueRef(3));
        assert_eq!(l3.first, a.pos(BlockRef(3)));
        assert_eq!(l3.uses, 1);
    }

    #[test]
    fn loop_phi_live_range_covers_backedge() {
        // loop counter phi: blocks 0 -> 1(header, phi) -> 2(latch) -> {1, 3}
        let mut ir = Ir::new(vec![vec![1], vec![2], vec![1, 3], vec![]], 1);
        ir.phi(1, 1, vec![(0, 0), (2, 2)]);
        ir.push(2, (Some(2), vec![1]));
        let a = run_analysis(&mut ir).unwrap();
        let lphi = a.live(ValueRef(1));
        assert_eq!(lphi.first, a.pos(BlockRef(1)));
        assert_eq!(lphi.last, a.pos(BlockRef(2)));
        assert!(lphi.last_full);
        // v2 (the next value) is used by the phi at end of block 2 but defined in 2
        let l2 = a.live(ValueRef(2));
        assert_eq!(l2.first, a.pos(BlockRef(2)));
    }

    #[test]
    fn loop_phi_stays_live_to_the_end_of_a_lower_numbered_latch() {
        // Same loop with the latch numbered before the header, so its use of
        // the phi is recorded before the back edge is: 0 -> 2(header, phi);
        // 2 -> 1(latch); 1 -> {2, 3}.
        let mut ir = Ir::new(vec![vec![2], vec![2, 3], vec![1], vec![]], 1);
        ir.phi(2, 1, vec![(0, 0), (1, 2)]);
        ir.push(1, (Some(2), vec![1]));
        let a = run_analysis(&mut ir).unwrap();
        let lphi = a.live(ValueRef(1));
        assert_eq!(lphi.last, a.pos(BlockRef(1)));
        assert!(lphi.last_full, "the back edge's move writes the phi");
    }

    #[test]
    fn a_one_block_loop_phi_stays_live_to_the_end_of_its_block() {
        // 0 -> 1 (phi v1 of v0 and v2; v2 = f(v1)) -> {1, 2}: the back
        // edge's move writes the phi after its last use, so its slot must
        // not be handed out before the end of block 1.
        let mut ir = Ir::new(vec![vec![1], vec![1, 2], vec![]], 1);
        ir.phi(1, 1, vec![(0, 0), (1, 2)]);
        ir.push(1, (Some(2), vec![1]));
        let a = run_analysis(&mut ir).unwrap();
        let lphi = a.live(ValueRef(1));
        assert_eq!(lphi.last, a.pos(BlockRef(1)));
        assert!(lphi.last_full && !lphi.phi_end);
    }

    /// 0 -> 1 (header) -> 2 (latch) -> {1, 3}; block 1 has phi v1 with
    /// `arg0` from 0 and `latch_inc` from 2; the latch defines v2 = f(v1).
    fn counted_loop(latch_inc: u32) -> Ir {
        let mut ir = Ir::new(vec![vec![1], vec![2], vec![1, 3], vec![]], 1);
        ir.phi(1, 1, vec![(0, 0), (2, latch_inc)]);
        ir.push(2, (Some(2), vec![1]));
        ir
    }

    #[test]
    fn phi_end_marks_a_latch_value_that_only_feeds_the_header_phi() {
        let mut ir = counted_loop(2);
        let a = run_analysis(&mut ir).unwrap();
        let l2 = a.live(ValueRef(2));
        assert_eq!(l2.last, a.pos(BlockRef(2)));
        assert!(l2.last_full && l2.phi_end);
        // the entry-edge incoming is phi-only at the end of block 0 as well
        assert!(a.live(ValueRef(0)).phi_end);
    }

    #[test]
    fn phi_end_is_clear_for_a_loop_invariant_latch_incoming() {
        // v5 is defined before the loop and is the latch's incoming: it must
        // survive every iteration, so loop extension clears the mark.
        let mut ir = counted_loop(5);
        ir.push(0, (Some(5), vec![]));
        let a = run_analysis(&mut ir).unwrap();
        let l5 = a.live(ValueRef(5));
        assert_eq!(l5.last, a.pos(BlockRef(2)));
        assert!(l5.last_full && !l5.phi_end);
    }

    #[test]
    fn phi_end_is_clear_for_a_phi_feeding_another_phis_back_edge() {
        // Header phis v1 and v3; v3's latch incoming is v1. v1 is the move
        // target of its own back edge, so it is not phi-only there — in
        // either phi order.
        for v1_first in [true, false] {
            let mut ir = Ir::new(vec![vec![1], vec![2], vec![1, 3], vec![]], 1);
            let p1 = (1, vec![(0, 0), (2, 2)]);
            let p3 = (3, vec![(0, 0), (2, 1)]);
            let (first, second) = if v1_first { (p1, p3) } else { (p3, p1) };
            ir.phi(1, first.0, first.1);
            ir.phi(1, second.0, second.1);
            ir.push(2, (Some(2), vec![1]));
            let a = run_analysis(&mut ir).unwrap();
            let l1 = a.live(ValueRef(1));
            assert_eq!(l1.last, a.pos(BlockRef(2)));
            assert!(l1.last_full && !l1.phi_end, "v1_first = {v1_first}");
        }
    }

    #[test]
    fn phi_end_is_clear_for_a_value_with_a_later_non_phi_use() {
        let mut ir = counted_loop(2);
        ir.push(3, (None, vec![2]));
        let a = run_analysis(&mut ir).unwrap();
        let l2 = a.live(ValueRef(2));
        assert_eq!(l2.last, a.pos(BlockRef(3)));
        assert!(!l2.last_full && !l2.phi_end);
    }

    #[test]
    fn empty_function_is_an_error() {
        let mut ir = Ir::new(vec![], 0);
        assert!(run_analysis(&mut ir).is_err());
    }

    #[test]
    fn use_counts_accumulate() {
        let mut ir = Ir::new(vec![vec![]], 1);
        ir.push(0, (Some(1), vec![0, 0, 0]));
        ir.push(0, (None, vec![1, 0]));
        let a = run_analysis(&mut ir).unwrap();
        assert_eq!(a.live(ValueRef(0)).uses, 4);
        assert_eq!(a.live(ValueRef(1)).uses, 1);
    }

    /// All CFG fixtures used above, for the scratch-reuse golden test.
    fn fixtures() -> Vec<Ir> {
        let mut with_liveness = Ir::new(vec![vec![1], vec![2], vec![]], 1);
        with_liveness.push(0, (Some(1), vec![0]));
        with_liveness.push(1, (Some(2), vec![1]));
        with_liveness.push(2, (None, vec![2]));
        let mut loop_phi = Ir::new(vec![vec![1], vec![2], vec![1, 3], vec![]], 1);
        loop_phi.phi(1, 1, vec![(0, 0), (2, 2)]);
        loop_phi.push(2, (Some(2), vec![1]));
        vec![
            Ir::new(vec![vec![1], vec![2], vec![]], 0),
            diamond(),
            Ir::new(vec![vec![1], vec![2, 3], vec![1], vec![]], 0),
            Ir::new(
                vec![vec![1], vec![2], vec![3], vec![2, 4], vec![1, 5], vec![]],
                0,
            ),
            Ir::new(vec![vec![1, 2], vec![2, 3], vec![1, 3], vec![]], 0),
            Ir::new(vec![vec![1], vec![], vec![1]], 0),
            with_liveness,
            loop_phi,
        ]
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_analysis() {
        // Golden test: one Analyzer + one Analysis reused across every CFG
        // fixture must produce exactly the same result (layout, loops,
        // liveness, preds) as a fresh analyze() per fixture — including when
        // a large function is followed by a small one (stale-capacity case).
        let mut analyzer = Analyzer::new();
        let mut reused = Analysis::default();
        let mut fx = fixtures();
        // run twice over all fixtures so every buffer sees shrink and growth
        for _round in 0..2 {
            for ir in fx.iter_mut() {
                ir.switch_func(FuncRef(0));
                let fresh = analyze(&*ir).unwrap();
                analyzer.analyze_into(&*ir, &mut reused).unwrap();
                assert_eq!(reused, fresh);
            }
        }
    }

    #[test]
    fn adapter_slices_are_stable_across_queries() {
        // The framework may hold a returned slice across unrelated queries;
        // repeated queries must return identical (and identically-located)
        // data until the next switch_func.
        let mut ir = diamond();
        ir.push(0, (Some(1), vec![0]));
        ir.switch_func(FuncRef(0));
        let ops1 = ir.inst_operands(InstRef(0));
        let _interleaved = (ir.block_succs(BlockRef(0)), ir.block_insts(BlockRef(1)));
        let ops2 = ir.inst_operands(InstRef(0));
        assert_eq!(ops1, ops2);
        assert!(std::ptr::eq(ops1.as_ptr(), ops2.as_ptr()));
        let insts1 = ir.block_insts(BlockRef(0));
        let insts2 = ir.block_insts(BlockRef(0));
        assert!(std::ptr::eq(insts1.as_ptr(), insts2.as_ptr()));
    }
}
